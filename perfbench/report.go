package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report collects one run's metrics, output checks and operation counts.
type report struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	metrics   map[string]metricValue
	lines     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{correct: true, metrics: make(map[string]metricValue)}
}

// metric records a metric for the result line.
func (r *report) metric(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.logf("metric %s = %.6g %s", name, v, unit)
}

// check records an output check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops counts attempted operations and those that failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
func (r *report) result() map[string]any {
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// samples is a set of durations (or other observations) to summarise.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d)) }

// pct returns the p-th percentile (0 < p <= 100) by the nearest-rank
// method, or 0 for an empty set.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailOK reports whether percentile p has at least ten samples beyond it.
func (s samples) tailOK(p float64) bool {
	return float64(len(s))*(100-p)/100 >= 10
}

// Unit scales for samples recorded in nanoseconds.
const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)

// latency reports a set of durations (ns) as the metrics <prefix>_p50_ms
// and <prefix>_tail_ms, the tail being percentile tailP, and prints them
// under the workload's own name for the operation with the sample count.
func (r *report) latency(prefix string, s samples, tailP float64, what string) {
	r.metric(prefix+"_p50_ms", s.pct(50)/nsPerMs, "ms")
	r.metric(prefix+"_tail_ms", s.pct(tailP)/nsPerMs, "ms")
	note := ""
	if !s.tailOK(tailP) {
		note = " (fewer than 10 samples beyond the tail)"
	}
	r.logf("  = %s: p50 %.4g ms, p%g %.4g ms over %d samples%s", what, s.pct(50)/nsPerMs, tailP,
		s.pct(tailP)/nsPerMs, len(s), note)
}

// rssMiB reads a resident-set counter (VmRSS, VmHWM) of this process.
func rssMiB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kib, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kib / 1024, nil
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}

// reportCommon adds the metrics every workload reports: the median of
// its repeated set-ups, and the live Go heap at the end of the timed
// phase, after a full collection — the memory the run's state holds.
// Resident-set figures are printed beside it but not bounded: the
// high-water mark adds the collector's headroom, which depends on when
// cycles happen to start, and even after returning free memory the
// resident set keeps fragmented heap spans; both moved by up to a fifth
// between runs.
func (r *report) reportCommon(setups samples) error {
	r.metric("setup_s", setups.pct(50)/1e9, "s")
	r.logf("  set-up repeated %d times: %s", len(setups), fmtSeconds(setups))
	hwm, err := rssMiB("VmHWM")
	if err != nil {
		return err
	}
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() != metrics.KindUint64 {
		return fmt.Errorf("runtime/metrics: %s unsupported", live[0].Name)
	}
	r.metric("heap_live_mib", float64(live[0].Value.Uint64())/(1<<20), "MiB")
	debug.FreeOSMemory()
	rss, err := rssMiB("VmRSS")
	if err != nil {
		return err
	}
	r.logf("  peak_rss_mib (VmHWM) = %.1f MiB, resident after returning free memory %.1f MiB", hwm, rss)
	return nil
}

func fmtSeconds(s samples) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.4f", v/1e9)
	}
	return strings.Join(parts, " ")
}

// cpuTicks reads the host's aggregate CPU time counters from /proc/stat:
// the ticks stolen by the hypervisor and the total. ok is false where
// the file is missing or unreadable.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// startCPUProfile writes a CPU profile to path until the returned stop
// function is called.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
