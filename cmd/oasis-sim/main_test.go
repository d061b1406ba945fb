package main

import (
	"reflect"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]bool{
		"FulltoPartial": true,
		"fulltopartial": true,
		"OnlyPartial":   true,
		"DEFAULT":       true,
		"NewHome":       true,
		"FullOnly":      true,
		"bogus":         false,
		"":              false,
	}
	for in, ok := range cases {
		_, err := parsePolicy(in)
		if ok && err != nil {
			t.Errorf("parsePolicy(%q) = %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("parsePolicy(%q) accepted", in)
		}
	}
}

// TestSingleClusterOnly pins the fleet-mode refusal: each single-cluster
// flag given explicitly is named, in a fixed order, and the flags fleet
// mode does read pass through.
func TestSingleClusterOnly(t *testing.T) {
	cases := []struct {
		explicit map[string]bool
		want     []string
	}{
		{nil, nil},
		{map[string]bool{"users": true, "seed": true, "policy": true, "series": true}, nil},
		{map[string]bool{"users": true, "ms-mtbf": true}, []string{"-ms-mtbf"}},
		{map[string]bool{"events": true, "runs": true, "ms-mtbf": true, "users": true},
			[]string{"-ms-mtbf", "-runs", "-events"}},
	}
	for _, c := range cases {
		if got := singleClusterOnly(c.explicit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("singleClusterOnly(%v) = %v, want %v", c.explicit, got, c.want)
		}
	}
}
