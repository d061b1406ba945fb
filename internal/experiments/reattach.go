package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/metrics"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// ReattachMeasured is one measured loopback transport: a real memory
// server, a real memtap, faults then a full partial→full conversion,
// best-of-benchRuns over fresh VMs.
type ReattachMeasured struct {
	Transport           string  `json:"transport"`
	PoolSize            int     `json:"pool_size"`
	PrefetchStreams     int     `json:"prefetch_streams"`
	FaultP50Micros      float64 `json:"fault_p50_us"`
	FaultP99Micros      float64 `json:"fault_p99_us"`
	PrefetchedPages     int     `json:"prefetched_pages"`
	PrefetchPagesPerSec float64 `json:"prefetch_pages_per_sec"`
}

// ReattachBench is the full benchmark result; oasis-bench -json writes it
// as BENCH_reattach.json. The measured section is a best-of-N loopback
// run on the build machine, and MeasuredGate is the acceptance
// comparison the tests and CI assert: pooled prefetch throughput must be
// at least measuredNoiseFloor x serial (see PERFORMANCE.md).
type ReattachBench struct {
	Experiment string `json:"experiment"`
	BenchMeta
	Measured     []ReattachMeasured `json:"measured_loopback"`
	MeasuredGate Gate               `json:"measured_gate"`
	Note         string             `json:"note"`
}

// GateResult returns the measured acceptance gate (for oasis-bench's
// exit status).
func (b ReattachBench) GateResult() Gate { return b.MeasuredGate }

// reattachStreams is the pipeline depth the benchmark compares against
// serial — the DefaultPoolSize the agent side uses.
const reattachStreams = memserver.DefaultPoolSize

// Reattach runs the parallel page-transport benchmark (§4.4.4 reattach
// path): two measured loopback runs, serial (1 connection, 1 stream) vs
// pooled (DefaultPoolSize of each).
func Reattach(opt Option) (ReattachBench, error) {
	out := ReattachBench{
		Experiment: "reattach",
		BenchMeta:  benchMeta(),
		Note:       fmt.Sprintf("measured_loopback is best-of-%d on the build machine", benchRuns),
	}

	measured, err := measureReattach(opt.Seed)
	if err != nil {
		return ReattachBench{}, err
	}
	out.Measured = measured
	out.MeasuredGate = measuredGate("prefetch_pages_per_sec", "pooled", "serial",
		out.Measured[1].PrefetchPagesPerSec, out.Measured[0].PrefetchPagesPerSec)
	return out, nil
}

// measureReattach stands up one loopback memory server holding a seeded
// image and runs both transports against it, benchRuns reps each, reps
// interleaved serial/pooled so a slow phase on the build machine (GC,
// background load) taxes both sides equally instead of skewing the
// ratio. Each rep gets a fresh memtap and a fresh partial VM: fault a
// spread of pages one by one (every rep's latencies feed that
// transport's p50/p99 sample — each rep's connections are equally
// cold), then time the partial→full conversion. The recorded throughput
// is the best rep; the installed-page count must agree across reps.
func measureReattach(seed uint64) ([]ReattachMeasured, error) {
	secret := []byte("oasis-bench")
	const vmid = pagestore.VMID(4242)
	alloc := 32 * units.MiB

	srv := memserver.NewServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	im := pagestore.NewImage(alloc)
	r := rng.New(seed)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if r.Bool(0.25) {
			continue // leave a quarter of the pages zero, like real guests
		}
		page := make([]byte, units.PageSize)
		for i := 0; i < len(page); i += 64 {
			page[i] = byte(pfn + pagestore.PFN(i))
		}
		if err := im.Write(pfn, page); err != nil {
			return nil, err
		}
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		return nil, err
	}
	if err := srv.InstallImage(vmid, alloc, snap); err != nil {
		return nil, err
	}

	cfgs := []struct {
		name          string
		pool, streams int
	}{
		{"serial", 1, 1},
		{"pooled", reattachStreams, reattachStreams},
	}
	lat := make([]metrics.Sample, len(cfgs))
	best := make([]time.Duration, len(cfgs))
	installed := make([]int, len(cfgs))
	for i := range best {
		best[i] = time.Duration(1<<63 - 1)
	}

	rep := func(i int) (int, time.Duration, error) {
		c := cfgs[i]
		mt, err := memtap.NewWithOptions(vmid, addr.String(), secret, memtap.Options{
			PoolSize:        c.pool,
			PrefetchStreams: c.streams,
		})
		if err != nil {
			return 0, 0, err
		}
		defer mt.Close()
		desc := hypervisor.NewDescriptor(vmid, "bench-"+c.name, alloc, 1)
		pvm, err := hypervisor.NewPartialVM(desc, mt)
		if err != nil {
			return 0, 0, err
		}

		// Fault 256 distinct pages one by one for the latency distribution.
		const faultPages = 256
		stride := (im.NumPages() - desc.PageTablePages) / faultPages
		if stride < 1 {
			stride = 1
		}
		for f := int64(0); f < faultPages; f++ {
			pfn := pagestore.PFN(desc.PageTablePages + f*stride)
			t0 := time.Now()
			if _, err := pvm.Read(pfn); err != nil {
				return 0, 0, err
			}
			lat[i].Add(float64(time.Since(t0).Microseconds()))
		}

		// Convert the rest: the reattach transfer this PR parallelises.
		// Only this conversion is on the throughput clock — the faults
		// above and the memtap handshake are measured separately.
		t0 := time.Now()
		n, err := mt.PrefetchRemaining(pvm, 256)
		return n, time.Since(t0), err
	}

	for run := 0; run < benchRuns; run++ {
		for i := range cfgs {
			runtime.GC()
			n, d, err := rep(i)
			if err != nil {
				return nil, err
			}
			if installed[i] != 0 && n != installed[i] {
				return nil, fmt.Errorf("%s: reps installed %d then %d pages", cfgs[i].name, installed[i], n)
			}
			installed[i] = n
			if d < best[i] {
				best[i] = d
			}
		}
	}

	out := make([]ReattachMeasured, len(cfgs))
	for i, c := range cfgs {
		out[i] = ReattachMeasured{
			Transport:           c.name,
			PoolSize:            c.pool,
			PrefetchStreams:     c.streams,
			FaultP50Micros:      lat[i].Percentile(50),
			FaultP99Micros:      lat[i].Percentile(99),
			PrefetchedPages:     installed[i],
			PrefetchPagesPerSec: float64(installed[i]) / best[i].Seconds(),
		}
	}
	return out, nil
}

// ReattachReport renders the benchmark as a plain-text experiment for
// oasis-bench -experiment reattach.
func ReattachReport(opt Option) Report {
	var b strings.Builder
	r, err := Reattach(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "reattach", Title: "Parallel page-transport reattach benchmark", Text: b.String()}
	}
	fmt.Fprintf(&b, "measured on loopback (32 MiB image, best of %d):\n", r.Runs)
	fmt.Fprintf(&b, "%-24s %14s %14s %16s\n", "transport", "fault p50", "fault p99", "prefetch pg/s")
	for _, meas := range r.Measured {
		fmt.Fprintf(&b, "%-24s %12.0fus %12.0fus %16.0f\n",
			fmt.Sprintf("%s (%dc/%ds)", meas.Transport, meas.PoolSize, meas.PrefetchStreams),
			meas.FaultP50Micros, meas.FaultP99Micros, meas.PrefetchPagesPerSec)
	}
	fmt.Fprintf(&b, "measured gate (%s): ratio %.3f vs floor %.2f: %s\n",
		r.MeasuredGate.Comparison, r.MeasuredGate.Ratio, r.MeasuredGate.NoiseFloor, gateWord(r.MeasuredGate))
	return Report{ID: "reattach", Title: "Parallel page-transport reattach benchmark", Text: b.String()}
}
