// Command perfbench is the Oasis benchmark: one command that runs a named
// workload against the repository's own packages, checks its outputs,
// and prints every metric by name with its unit. The last line of
// standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with -trace 1 the run records spans at every layer
// boundary and reports the per-layer metrics instead. README.md in this
// directory explains the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchWorkload is one named set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	// run measures the end-to-end metrics with tracing off.
	run func(cfg runConfig, rep *report) error
	// trace runs the workload's traced pass, recording per-layer
	// metrics, and returns its headline (untraced, traced) pair for
	// trace_overhead_frac.
	trace func(cfg runConfig, rep *report) (overhead, error)
	// procs, when not zero, pins GOMAXPROCS for the workload; zero keeps
	// Go's default of one P per CPU, as the daemons run.
	procs int
}

// overhead is a workload's headline metric measured untraced and traced
// in the same process; a cost (time per unit of work), so larger is worse.
type overhead struct {
	untraced, traced float64
}

func (o overhead) frac() float64 {
	if o.untraced <= 0 {
		return 0
	}
	return (o.traced - o.untraced) / o.untraced
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	budget   time.Duration
	artifact string // directory for trace artifacts ("" when untraced)
}

var workloads = []benchWorkload{
	{name: "fleet-day", run: runFleet, trace: traceFleet},
	// vdi-day runs on one P. Its steps are chains of loopback RPCs
	// between goroutines; with a P per vCPU a hand-off can wait for an
	// idle vCPU to be woken, which takes as long as the host's load
	// makes it. On a 2-vCPU KVM guest, two 10-seed sets an hour apart
	// at two Ps moved by up to a third, with run-to-run spreads up to
	// 0.26; in paired runs one P cut the spread of the vacate metrics
	// from 0.19-0.20 to 0.10-0.13. A change that overlaps work inside
	// the agents (UploadStreams, parallel encode) cannot show a gain
	// here; reattach runs at the default and shows it on the read side.
	{name: "vdi-day", run: runVDI, trace: traceVDI, procs: 1},
	{name: "reattach", run: runReattach, trace: traceReattach},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fleet-day, vdi-day or reattach")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 30, "how long the timed phase measures")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		root    = flag.String("root", ".", "repository checkout (trace artifacts go under .bench_build/)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second}

	defaultProcs := runtime.GOMAXPROCS(0)
	usable := usableCores()
	setProcs(w, defaultProcs)
	fmt.Printf("machine %s\n", mustJSON(measureMachine(*root, *seed, usable)))

	rep := newReport()
	steal0, total0, statOK := cpuTicks()
	var err error
	if *traced == 0 {
		err = w.run(cfg, rep)
	} else {
		cfg.artifact = filepath.Join(*root, ".bench_build", "perfbench-trace",
			fmt.Sprintf("%s-seed%d", w.name, *seed))
		err = runTraced(w, cfg, rep, defaultProcs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if steal1, total1, ok := cpuTicks(); ok && statOK && total1 > total0 {
		// Time the hypervisor gave other guests while this one was
		// runnable: the main source of run-to-run noise on a shared host.
		rep.logf("host: %.1f%% of CPU time stolen by the hypervisor during the run",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	if !rep.correct {
		for _, msg := range rep.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, msg)
		}
	}
	fmt.Println(mustJSON(rep.result()))
	if !rep.correct || rep.failed > 0 {
		os.Exit(1)
	}
}

// runTraced runs the traced pass of every workload, so that every
// per-layer metric is measured on the workload that drives its layer,
// and reports trace_overhead_frac for the selected one. Each pass gets
// an equal share of the budget.
func runTraced(sel benchWorkload, cfg runConfig, rep *report, defaultProcs int) error {
	if err := os.MkdirAll(cfg.artifact, 0o755); err != nil {
		return err
	}
	share := cfg.budget / time.Duration(len(workloads))
	var selOverhead overhead
	for _, w := range workloads {
		setProcs(w, defaultProcs)
		c := cfg
		c.budget = share
		c.artifact = filepath.Join(cfg.artifact, w.name)
		if err := os.MkdirAll(c.artifact, 0o755); err != nil {
			return err
		}
		stop, err := startCPUProfile(filepath.Join(c.artifact, "cpu.pprof"))
		if err != nil {
			return err
		}
		ov, err := w.trace(c, rep)
		stop()
		if err != nil {
			return fmt.Errorf("traced %s: %w", w.name, err)
		}
		rep.logf("%s trace overhead %.3f (untraced %.4g, traced %.4g per unit of work)",
			w.name, ov.frac(), ov.untraced, ov.traced)
		if w.name == sel.name {
			selOverhead = ov
		}
	}
	rep.metric("trace_overhead_frac", selOverhead.frac(), "frac")
	rep.logf("trace artifacts in %s", cfg.artifact)
	return nil
}

// setProcs sets the GOMAXPROCS workload w runs under.
func setProcs(w benchWorkload, defaultProcs int) {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else {
		runtime.GOMAXPROCS(defaultProcs)
	}
}

// machineRecord describes the box a result was measured on.
type machineRecord struct {
	NumCPU int `json:"nproc"`
	// GOMAXPROCS is the value the workloads run under.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitSHA      string  `json:"git_sha"`
	Seed        uint64  `json:"seed"`
	UsableCores float64 `json:"usable_cores"`
}

func measureMachine(root string, seed uint64, usable float64) machineRecord {
	return machineRecord{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitSHA:      gitSHA(root),
		Seed:        seed,
		UsableCores: usable,
	}
}

// gitSHA resolves HEAD from the checkout's .git directory without running
// git; a checkout exported without .git reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return string(b)
}
