package main

import (
	"reflect"
	"testing"
	"time"
)

// Every workload's generated inputs are a pure function of the seed: one
// seed gives one digest, and different seeds give different digests.
func TestInputDigests(t *testing.T) {
	gens := map[string]func(seed uint64) (uint64, error){
		"fleet-day": func(seed uint64) (uint64, error) {
			in, err := genFleetInputs(seed)
			if err != nil {
				return 0, err
			}
			return in.digest, nil
		},
		"vdi-day": func(seed uint64) (uint64, error) { return genVDIInputs(seed).digest, nil },
		"reattach": func(seed uint64) (uint64, error) {
			in, err := genReattachInputs(seed)
			if err != nil {
				return 0, err
			}
			return in.digest, nil
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			a, err := gen(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gen(1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := gen(2)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("seed 1 gave digests %016x and %016x", a, b)
			}
			if a == c {
				t.Fatalf("seeds 1 and 2 gave the same digest %016x", a)
			}
		})
	}
}

// Later vdi-day days are generated on demand; a day must not depend on
// which days were generated before it.
func TestVDIDayIndependent(t *testing.T) {
	a, b := genVDIInputs(7), genVDIInputs(7)
	b.day(3)
	if !reflect.DeepEqual(a.day(1), b.day(1)) {
		t.Fatal("day 1 depends on generation order")
	}
}

func TestPercentile(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !s.tailOK(90) || s.tailOK(99) {
		t.Error("tailOK: want p90 resolved and p99 not at 100 samples")
	}
}

// Self time is a span minus its children, and stage children laid end to
// end under the open span keep their measured durations.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	ln := tr.lane()
	ln.begin("outer", 0)
	ln.begin("inner", 0)
	time.Sleep(2 * time.Millisecond)
	ln.stages([]string{"a", "b"}, []time.Duration{300 * time.Microsecond, 200 * time.Microsecond})
	inner := ln.end()
	outer := ln.end()
	if inner.Op != outer.Op || inner.Parent != outer.ID {
		t.Fatalf("inner span not linked to outer: %+v %+v", inner, outer)
	}
	lt := tr.summarise()
	if got, want := lt.self["outer"][0], float64(outer.dur()-inner.dur()); got != want {
		t.Errorf("outer self %v, want %v", got, want)
	}
	if got, want := lt.self["inner"][0], float64(inner.dur()-500*int64(time.Microsecond)); got != want {
		t.Errorf("inner self %v, want %v", got, want)
	}
	if got := lt.total["a"][0]; got != float64(300*time.Microsecond) {
		t.Errorf("stage a lasted %v", got)
	}
}
