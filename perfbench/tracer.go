package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around its calls into
// each layer. A span is named <module>.<call>; where it coincides with a
// stage of the in-program fault-path tracer (telemetry.FaultPath) it
// reuses that stage's name (remote_fetch, decompress), so bench spans
// and live traces share one vocabulary.
const (
	spanFleetCell       = "sim.cell"
	spanRunFleet        = "sim.run_fleet"
	spanUserDay         = "trace.user_day_at"
	spanClusterNew      = "cluster.new"
	spanRunUntil        = "simtime.run_until"
	spanTick            = "cluster.tick"
	spanDigest          = "cluster.digest"
	spanVacate          = "vdi.vacate"
	spanResume          = "vdi.resume"
	spanPartialMigrate  = "agent.partial_migrate"
	spanSuspend         = "agent.suspend"
	spanWake            = "agent.wake"
	spanReintegrate     = "agent.reintegrate"
	spanReadPage        = "agent.read_page"
	spanWritePage       = "agent.write_page"
	spanEncode          = "pagestore.encode"
	spanRead            = "hypervisor.read"
	spanFetchPage       = "memtap.fetch_page"
	spanGetPage         = "memserver.get_page"
	spanRemoteFetch     = "remote_fetch"
	spanDecompress      = "decompress"
	spanPrefetch        = "memtap.prefetch_remaining"
	spanGetPages        = "memserver.get_pages"
	maxSpansWritten     = 200000
	spanFileName        = "spans.jsonl"
	spanSummaryFileName = "summary.txt"
)

// span is one finished span. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced pass in memory.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	nextOp atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newOp returns a fresh operation id; spans of one operation share it.
func (t *tracer) newOp() uint64 { return t.nextOp.Add(1) }

// lane is a stack of open spans belonging to one goroutine: a span begun
// while another is open on the same lane becomes its child.
type lane struct {
	t    *tracer
	open []span
}

func (t *tracer) lane() *lane { return &lane{t: t} }

// begin opens a span. op 0 inherits the enclosing span's operation, or
// starts a new operation at the root.
func (l *lane) begin(name string, op uint64) {
	s := span{ID: l.t.nextID.Add(1), Op: op, Name: name}
	if n := len(l.open); n > 0 {
		s.Parent = l.open[n-1].ID
		if op == 0 {
			s.Op = l.open[n-1].Op
		}
	}
	if s.Op == 0 {
		s.Op = l.t.newOp()
	}
	s.Start = l.t.now()
	l.open = append(l.open, s)
}

// end closes the innermost open span and returns it.
func (l *lane) end() span {
	n := len(l.open) - 1
	s := l.open[n]
	l.open = l.open[:n]
	s.End = l.t.now()
	l.t.record(s)
	return s
}

// stages records, under the innermost open span, children whose
// durations were measured inside the callee. They are laid end to end,
// finishing now, in the order given.
func (l *lane) stages(names []string, durs []time.Duration) {
	parent := l.open[len(l.open)-1]
	end := l.t.now()
	for i := len(names) - 1; i >= 0; i-- {
		start := end - int64(durs[i])
		l.t.record(span{ID: l.t.nextID.Add(1), Parent: parent.ID, Op: parent.Op,
			Name: names[i], Start: start, End: end})
		end = start
	}
}

// layerTimes summarises a tracer's spans: per span name, every span's
// total and self duration (nanoseconds), where self time is the span
// minus its children.
type layerTimes struct {
	total map[string]samples
	self  map[string]samples
	// withChild[name][child] lists the totals of name-spans that have a
	// child called child.
	withChild map[string]map[string]samples
	// selfWithChild is the self-time analogue of withChild.
	selfWithChild map[string]map[string]samples
}

func (t *tracer) summarise() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childDur := make(map[uint64]int64, len(spans))
	childNames := make(map[uint64][]string)
	for _, s := range spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
			childNames[s.Parent] = append(childNames[s.Parent], s.Name)
		}
	}
	lt := layerTimes{
		total:         make(map[string]samples),
		self:          make(map[string]samples),
		withChild:     make(map[string]map[string]samples),
		selfWithChild: make(map[string]map[string]samples),
	}
	for _, s := range spans {
		tot := lt.total[s.Name]
		tot.add(float64(s.dur()))
		lt.total[s.Name] = tot
		self := float64(s.dur() - childDur[s.ID])
		sf := lt.self[s.Name]
		sf.add(self)
		lt.self[s.Name] = sf
		for _, c := range uniq(childNames[s.ID]) {
			if lt.withChild[s.Name] == nil {
				lt.withChild[s.Name] = make(map[string]samples)
				lt.selfWithChild[s.Name] = make(map[string]samples)
			}
			w := lt.withChild[s.Name][c]
			w.add(float64(s.dur()))
			lt.withChild[s.Name][c] = w
			ws := lt.selfWithChild[s.Name][c]
			ws.add(self)
			lt.selfWithChild[s.Name][c] = ws
		}
	}
	return lt
}

func uniq(names []string) []string {
	if len(names) < 2 {
		return names
	}
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// write stores the spans (up to maxSpansWritten, as JSON lines) and a
// per-name summary table in dir.
func (t *tracer) write(dir string, lt layerTimes) error {
	t.mu.Lock()
	spans := t.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	total := len(t.spans)
	err := writeJSONLines(filepath.Join(dir, spanFileName), spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, spanSummaryFileName))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%d spans recorded, %d written to %s\n", total, len(spans), spanFileName)
	fmt.Fprintf(w, "%-28s %9s %12s %12s %12s %14s\n", "span", "count", "p50_us", "p99_us", "self_p50_us", "self_total_ms")
	names := make([]string, 0, len(lt.total))
	for n := range lt.total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tot, self := lt.total[n], lt.self[n]
		fmt.Fprintf(w, "%-28s %9d %12.2f %12.2f %12.2f %14.2f\n", n, len(tot),
			tot.pct(50)/nsPerUs, tot.pct(99)/nsPerUs, self.pct(50)/nsPerUs, self.sum()/nsPerMs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONLines(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
