package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/trace"
	"oasis/internal/units"
	"oasis/internal/workload"
)

// Inputs are generated from the workload seed by the benchmark; the
// program under test only ever sees the generated values. Each workload
// folds everything it generates into an inputDigest, printed with the
// result, so one seed provably gives one input set.

// inputDigest is an FNV-1a hash over generated inputs.
type inputDigest struct{ h hash.Hash64 }

func newInputDigest(workload string) *inputDigest {
	d := &inputDigest{h: fnv.New64a()}
	d.h.Write([]byte(workload))
	return d
}

func (d *inputDigest) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *inputDigest) bytes(p []byte) { d.h.Write(p) }

func (d *inputDigest) day(u trace.UserDay) {
	var bits [trace.IntervalsPerDay/8 + 1]byte
	for i, a := range u.Active {
		if a {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	d.h.Write(bits[:])
}

func (d *inputDigest) sum() uint64 { return d.h.Sum64() }

// seedFor derives an independent substream seed for one purpose.
func seedFor(seed uint64, purpose string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rng.Mix64(seed, h.Sum64())
}

// pagesPer4GiB converts the paper's 4 GiB-VM rates and working sets to
// the benchmark's smaller VMs.
var pagesPer4GiB = float64((4 * units.GiB) / units.PageSize)

// workingSets returns n idle working-set sizes, in pages of a VM of the
// given size, at the (i+0.5)/n quantiles of the Jettison distribution
// (estimated from wsDraws draws of workload.SampleWorkingSet) and
// shuffled across the n VMs. Stratifying keeps the set of sizes the same
// from seed to seed, so a run's averages do not hinge on a few draws.
func workingSets(n int, vmPages pagestore.PFN, r *rng.Rand) []int {
	const wsDraws = 4096
	draws := make([]float64, wsDraws)
	for i := range draws {
		draws[i] = float64(workload.SampleWorkingSet(r))
	}
	sort.Float64s(draws)
	out := make([]int, n)
	for i := range out {
		ws := draws[int((float64(i)+0.5)/float64(n)*wsDraws)]
		out[i] = max(int(ws/float64(units.PageSize)*float64(vmPages)/pagesPer4GiB), 1)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stochasticRound rounds x down or up with the odds that keep its mean.
func stochasticRound(x float64, r *rng.Rand) int {
	n := int(x)
	if r.Float64() < x-float64(n) {
		n++
	}
	return n
}

// pageKind is the content class of a generated guest page. A desktop's
// memory holds zeroed pages, compressible text and code, and pages that
// do not compress (media, encrypted or already-compressed data); the mix
// makes the memory server's zero elision, lzf and raw paths all run.
type pageKind int

const (
	pageZero pageKind = iota
	pageText
	pageRandom
)

// pageMix is the fraction of zero and compressible pages; the rest are
// incompressible.
type pageMix struct{ zero, text float64 }

// desktopMix is the reattach image mix: a quarter zero pages, half
// compressible, a quarter incompressible.
var desktopMix = pageMix{zero: 0.25, text: 0.5}

func (m pageMix) draw(r *rng.Rand) pageKind {
	x := r.Float64()
	switch {
	case x < m.zero:
		return pageZero
	case x < m.zero+m.text:
		return pageText
	default:
		return pageRandom
	}
}

// textWords is the vocabulary compressible pages are built from.
var textWords = []string{
	"the ", "desktop ", "session ", "window ", "mail ", "calendar ", "buffer ",
	"struct ", "return ", "if (", ") {\n", "0x00ff", "    ", "idle ", "page ", "cache ",
}

// genPage fills a fresh page of the given kind. A compressible page is
// a run of vocabulary words with one random byte in eight tokens; each
// 64-bit draw picks nine tokens.
func genPage(kind pageKind, r *rng.Rand) []byte {
	p := make([]byte, units.PageSize)
	switch kind {
	case pageText:
		var bits uint64
		left := 0
		for i := 0; i < len(p); {
			if left == 0 {
				bits, left = r.Uint64(), 9
			}
			tok := bits & 0x7f
			bits >>= 7
			left--
			if tok>>4 == 0 {
				p[i] = byte(bits>>56) ^ byte(tok)
				i++
				continue
			}
			i += copy(p[i:], textWords[tok&0xf])
		}
	case pageRandom:
		for i := 0; i+8 <= len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], r.Uint64())
		}
	}
	return p
}

// usableCores measures how much parallelism the box gives a CPU-bound
// goroutine pair: a fixed spin runs alone, then twice concurrently, and
// usable cores = 2 x alone / together (1 on a single effective core, 2
// when both spinners run unimpeded). Each timing is the best of three.
func usableCores() float64 {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	const iters = 20_000_000
	spin := func() uint64 {
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x
	}
	var sink uint64
	best := func(n int) time.Duration {
		b := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			var wg sync.WaitGroup
			var mu sync.Mutex
			start := time.Now()
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v := spin()
					mu.Lock()
					sink ^= v
					mu.Unlock()
				}()
			}
			wg.Wait()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	one, two := best(1), best(2)
	_ = sink
	cores := 2 * one.Seconds() / two.Seconds()
	if cores < 1 {
		cores = 1
	}
	if cores > 2 {
		cores = 2
	}
	return cores
}
