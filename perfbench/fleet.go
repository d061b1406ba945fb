package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"oasis/internal/cluster"
	"oasis/internal/rng"
	"oasis/internal/sim"
	"oasis/internal/simtime"
	"oasis/internal/trace"
)

// fleet-day: sim.RunFleet over whole 900-user cells of the §5.1 cluster
// (30 homes x 30 VMs + 4 consolidation hosts), weekday traces, one
// worker. The loop alternates one-cell and two-cell fleets; all time is
// CPU in sim, cluster, host, placement, trace and simtime.

const (
	fleetSetupReps = 41
	// fleetTailPct is the tail percentile of the per-call times: a run
	// makes about 60 calls of each size, so p80 keeps ten samples beyond.
	fleetTailPct = 80
	// fleetSmallCells and fleetLargeCells size the alternating fleets.
	fleetSmallCells = 1
	fleetLargeCells = 2
)

// fleetInputs is what fleet-day generates from its seed: the fleet seed
// sequence and one replay cell (its users' days and cluster seed).
type fleetInputs struct {
	fleetSeed uint64
	cellSeed  uint64
	traceBase uint64
	days      []trace.UserDay
	digest    uint64
}

// fleetCall returns the i-th fleet the timed loop runs.
func (in *fleetInputs) fleetCall(i int) sim.FleetConfig {
	cells := fleetSmallCells
	if i%2 == 1 {
		cells = fleetLargeCells
	}
	cfg := sim.FleetConfig{
		Cell:    cluster.DefaultConfig(),
		Kind:    trace.Weekday,
		Workers: 1,
		Seed:    rng.Mix64(in.fleetSeed, uint64(i)),
	}
	cfg.Users = cells * cfg.UsersPerCell()
	return cfg
}

// genFleetInputs is fleet-day's set-up: it generates the replay cell's
// user-days and builds its cluster, the per-cell preparation RunFleet
// repeats inside every cell.
func genFleetInputs(seed uint64) (*fleetInputs, error) {
	in := &fleetInputs{
		fleetSeed: seedFor(seed, "fleet"),
		cellSeed:  seedFor(seed, "fleet-replay-cell"),
		traceBase: seedFor(seed, "fleet-replay-trace"),
	}
	cfg := cluster.DefaultConfig()
	cfg.Seed = in.cellSeed
	cfg.NoTelemetry = true
	users := cfg.HomeHosts * cfg.VMsPerHost
	d := newInputDigest("fleet-day")
	d.u64(in.fleetSeed)
	d.u64(in.cellSeed)
	in.days = make([]trace.UserDay, users)
	for u := range in.days {
		in.days[u] = trace.UserDayAt(in.traceBase, uint64(u), trace.Weekday)
		d.day(in.days[u])
	}
	if _, err := cluster.New(simtime.New(), cfg); err != nil {
		return nil, err
	}
	in.digest = d.sum()
	return in, nil
}

// fleetRun is the outcome of a timed fleet loop.
type fleetRun struct {
	small, large samples // wall ns per call
	users        int64
	cells        int64
	elapsed      time.Duration
	calls        int64
	events, ops  int64
	suspends     int64
	// last is the most recent multi-cell fleet, rerun in parallel by
	// the traced pass.
	last    *sim.FleetResult
	lastCfg sim.FleetConfig
}

func (r *fleetRun) nsPerUser() float64 { return float64(r.elapsed) / float64(r.users) }

// loopFleet runs fleets until the budget is spent, checking each result.
// observe, when set, brackets every RunFleet call (the traced pass hooks
// its span and runtime/metrics reads there).
func loopFleet(in *fleetInputs, budget time.Duration, rep *report, observe func(call func())) (*fleetRun, error) {
	out := &fleetRun{}
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		cfg := in.fleetCall(i)
		var res *sim.FleetResult
		var err error
		start := time.Now()
		call := func() { res, err = sim.RunFleet(cfg) }
		if observe != nil {
			observe(call)
		} else {
			call()
		}
		d := time.Since(start)
		rep.ops(1, 0)
		if err != nil {
			rep.ops(0, 1)
			return nil, fmt.Errorf("fleet %d: %w", i, err)
		}
		checkFleet(rep, cfg, res)
		if cfg.Cells() == fleetSmallCells {
			out.small.addDur(d)
		} else {
			out.large.addDur(d)
		}
		out.elapsed += d
		out.users += int64(res.Users)
		out.cells += int64(res.Cells)
		out.calls++
		out.events += res.Digest.SimEvents
		out.suspends += res.Digest.Suspends
		for _, n := range res.Digest.Ops {
			out.ops += n
		}
		if res.Cells > 1 {
			out.last, out.lastCfg = res, cfg
		}
	}
	return out, nil
}

func checkFleet(rep *report, cfg sim.FleetConfig, res *sim.FleetResult) {
	rep.check(res.SavingsPct > 0 && res.SavingsPct < 100,
		"fleet seed %d: savings %.3f%% outside (0, 100)", cfg.Seed, res.SavingsPct)
	rep.check(res.Cells == cfg.Cells() && res.Users == res.Cells*cfg.UsersPerCell(),
		"fleet seed %d: %d users in %d cells, want %d cells x %d", cfg.Seed, res.Users, res.Cells,
		cfg.Cells(), cfg.UsersPerCell())
}

func fleetSetup(seed uint64) (*fleetInputs, samples, error) {
	var setups samples
	var in *fleetInputs
	for rep := 0; rep < fleetSetupReps; rep++ {
		start := time.Now()
		var err error
		if in, err = genFleetInputs(seed); err != nil {
			return nil, nil, err
		}
		setups.addDur(time.Since(start))
	}
	return in, setups, nil
}

func runFleet(cfg runConfig, rep *report) error {
	in, setups, err := fleetSetup(cfg.seed)
	if err != nil {
		return err
	}
	rep.logf("fleet-day input digest %016x", in.digest)
	run, err := loopFleet(in, cfg.budget, rep, nil)
	if err != nil {
		return err
	}
	rep.logf("fleet-day: %d fleets, %d cells, %d users in %.2fs", run.calls, run.cells, run.users, run.elapsed.Seconds())
	rate := float64(run.users) / run.elapsed.Seconds()
	rep.logf("fleet_users_per_s = %.1f user-days/s", rate)
	rep.metric("rate_per_s", rate, "1/s")
	rep.latency("op", run.small, fleetTailPct, fmt.Sprintf("RunFleet of %d cell (wall time per call)", fleetSmallCells))
	rep.latency("op2", run.large, fleetTailPct, fmt.Sprintf("RunFleet of %d cells (wall time per call)", fleetLargeCells))
	return rep.reportCommon(setups)
}

// runtime/metrics read around RunFleet in the traced pass.
var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type rtSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(ms[0]), gcCPU: val(ms[1]), totalCPU: val(ms[2])}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSample) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// traceFleet is fleet-day's traced pass: RunFleet under runtime/metrics,
// a rerun at nproc workers that must reproduce the fingerprint, and a
// replay of sample cells through the layer calls RunFleet is made of.
func traceFleet(cfg runConfig, rep *report) (overhead, error) {
	in, _, err := fleetSetup(cfg.seed)
	if err != nil {
		return overhead{}, err
	}
	rep.logf("fleet-day input digest %016x", in.digest)
	part := cfg.budget / 3

	base, err := loopFleet(in, part, rep, nil)
	if err != nil {
		return overhead{}, err
	}

	tr := newTracer()
	ln := tr.lane()
	runtime.GC()
	var rt rtSample
	run, err := loopFleet(in, part, rep, func(call func()) {
		before := readRuntime()
		ln.begin(spanRunFleet, 0)
		call()
		ln.end()
		rt = addRT(rt, readRuntime().sub(before))
	})
	if err != nil {
		return overhead{}, err
	}
	users := float64(run.users)
	rep.metric("sim.alloc_kib_per_user", rt.allocBytes/1024/users, "KiB")
	rep.metric("sim.gc_cpu_frac", rt.gcFrac(), "frac")
	rep.metric("sim.events_per_user", float64(run.events)/users, "count")
	rep.metric("cluster.ops_per_user", float64(run.ops)/users, "count")
	rep.metric("cluster.suspends_per_cell", float64(run.suspends)/float64(run.cells), "count")

	// The fleet's bit-identity proof: the last fleet rerun at nproc
	// workers must fingerprint identically to its single-worker run.
	par := run.lastCfg
	par.Workers = runtime.NumCPU()
	rep.ops(1, 0)
	pres, err := sim.RunFleet(par)
	if err != nil {
		rep.ops(0, 1)
		return overhead{}, fmt.Errorf("fleet rerun at %d workers: %w", par.Workers, err)
	}
	rep.check(pres.Fingerprint() == run.last.Fingerprint(),
		"fleet seed %d: fingerprint %016x at %d workers, %016x at 1", par.Seed,
		pres.Fingerprint(), pres.Workers, run.last.Fingerprint())
	rep.logf("fleet-day: fingerprint %016x identical at 1 and %d workers", pres.Fingerprint(), pres.Workers)

	// Replay sample cells through UserDayAt, cluster.New, RunUntil, Tick
	// and Digest.
	deadline := time.Now().Add(part)
	cells := 0
	for cells == 0 || time.Now().Before(deadline) {
		if err := replayCell(in, cells, ln, rep); err != nil {
			return overhead{}, err
		}
		cells++
	}
	lt := tr.summarise()
	rep.metric("trace.user_day_us", lt.total[spanUserDay].pct(50)/nsPerUs, "us")
	rep.metric("cluster.new_ms", lt.total[spanClusterNew].pct(50)/nsPerMs, "ms")
	rep.metric("cluster.tick_us_p50", lt.total[spanTick].pct(50)/nsPerUs, "us")
	rep.metric("cluster.tick_us_p99", lt.total[spanTick].pct(99)/nsPerUs, "us")
	rep.metric("simtime.run_until_us", lt.total[spanRunUntil].pct(50)/nsPerUs, "us")
	rep.logf("fleet-day: replayed %d sample cells", cells)
	if err := tr.write(cfg.artifact, lt); err != nil {
		return overhead{}, err
	}
	return overhead{untraced: base.nsPerUser(), traced: run.nsPerUser()}, nil
}

func addRT(a, b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// replayCell simulates replay cell n the way RunFleet simulates a cell,
// one traced layer call at a time. Cell 0 is the generated replay cell;
// later cells take the next users of the same trace and a fresh seed.
func replayCell(in *fleetInputs, n int, ln *lane, rep *report) error {
	ln.begin(spanFleetCell, 0)
	defer ln.end()
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = rng.Mix64(in.cellSeed, uint64(n))
	ccfg.NoTelemetry = true

	days := make([]trace.UserDay, len(in.days))
	for u := range days {
		ln.begin(spanUserDay, 0)
		days[u] = trace.UserDayAt(in.traceBase, uint64(n*len(days)+u), trace.Weekday)
		ln.end()
		if n == 0 {
			rep.check(days[u] == in.days[u], "replay cell: user %d's day differs from its generated day", u)
		}
	}
	ln.begin(spanClusterNew, 0)
	s := simtime.New()
	cl, err := cluster.New(s, ccfg)
	ln.end()
	rep.ops(1, 0)
	if err != nil {
		rep.ops(0, 1)
		return err
	}
	interval := time.Duration(trace.IntervalMinutes) * time.Minute
	active := make([]bool, len(days))
	for iv := 0; iv < trace.IntervalsPerDay; iv++ {
		ln.begin(spanRunUntil, 0)
		s.RunUntil(simtime.Time(iv) * simtime.Time(interval))
		ln.end()
		for i := range active {
			active[i] = days[i].Active[iv]
		}
		ln.begin(spanTick, 0)
		err := cl.Tick(active)
		ln.end()
		rep.ops(1, 0)
		if err != nil {
			rep.ops(0, 1)
			return fmt.Errorf("replay cell %d interval %d: %w", n, iv, err)
		}
	}
	s.RunUntil(simtime.Day)
	cl.FlushEpisodes()
	ln.begin(spanDigest, 0)
	d := cl.Digest()
	ln.end()
	rep.check(d.Cells == 1 && d.EnergyMicroJ > 0 && d.SimEvents > 0,
		"replay cell %d: empty digest (cells %d, energy %d, events %d)", n, d.Cells, d.EnergyMicroJ, d.SimEvents)
	return nil
}
