package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"oasis/internal/agent"
	"oasis/internal/cluster"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/trace"
	"oasis/internal/units"
	"oasis/internal/vm"
	"oasis/internal/workload"
)

// vdi-day: in-process host agents on loopback, each with its own RPC
// endpoint and memory server — a few home hosts with a few VMs each and
// two consolidation hosts — under one agent.Manager and agent.Controller.
// Every VM replays a weekday trace, one activity change per
// Controller.Step, so each step is exactly one of: vacate (a home went
// all-idle: partial-migrate its VMs, suspend it), resume (a consolidated
// user returned: wake the home, reintegrate its VMs) or a no-op. Between
// steps every VM dirties memory at the cluster model's rate for where it
// runs, and consolidated VMs also read in idle AccessProcess bursts.

const (
	vdiHomes      = 6
	vdiCons       = 2
	vdiVMsPerHome = 4
	vdiVMs        = vdiHomes * vdiVMsPerHome
	vdiAlloc      = 1 * units.MiB
	vdiSetupReps  = 5
	// vdiTracePool is how many candidate user-days each VM slot of a day
	// draws from (see vdiInputs.day).
	vdiTracePool = 4
	vdiFirstVMID = 2000
)

var vdiSecret = []byte("perfbench-vdi")

// vdiRates are the page-dirtying rates of cluster.DefaultConfig(), per
// 5-minute interval, scaled from its 4 GiB VMs to vdi-day's VM size.
// The model counts distinct dirty pages: at home, relative to the last
// memory-server upload and bounded by the VM's allocation (so a long
// active stretch dirties the whole VM); on a consolidation host, since
// the partial migration and bounded by ReintegrateDirtyCap (idle
// background activity rewrites the same working-set pages).
type vdiRates struct {
	active, idleHome, cons float64 // pages per interval
	consCap                int     // distinct pages a stay can dirty
}

func vdiDirtyRates(vmPages pagestore.PFN) vdiRates {
	c := cluster.DefaultConfig()
	scale := float64(vmPages) / pagesPer4GiB
	perInterval := func(perHour units.Bytes) float64 {
		return float64(perHour) / float64(units.PageSize) * scale * float64(trace.IntervalMinutes) / 60
	}
	return vdiRates{
		active:   perInterval(c.ActiveDirtyPerHour),
		idleHome: perInterval(c.IdleDirtyPerHour),
		cons:     perInterval(c.ConsDirtyPerHour),
		consCap:  max(int(float64(c.ReintegrateDirtyCap)/float64(units.PageSize)*scale), 1),
	}
}

// vdiInterval is what one VM does in one interval. Which of it runs
// depends on where the Controller has the VM: writes at home while
// active or idle at home, writes and idle-burst reads while consolidated.
type vdiInterval struct {
	reads                                []pagestore.PFN
	activeWrites, idleWrites, consWrites int
}

// vdiDay is one generated day: every VM's activity and accesses per
// interval.
type vdiDay struct {
	active [vdiVMs][trace.IntervalsPerDay]bool
	work   [vdiVMs][trace.IntervalsPerDay]vdiInterval
}

// vdiInputs is everything vdi-day generates from its seed.
type vdiInputs struct {
	seed      uint64
	traceBase uint64
	rates     vdiRates
	pt        pagestore.PFN // first guest page outside the page tables
	pages     pagestore.PFN
	ws        [vdiVMs][]pagestore.PFN
	// homeOrder is the order a VM dirties its pages at home: a
	// permutation of every guest page, taken cyclically, so n writes
	// since an upload dirty min(n, all) distinct pages. consOrder does
	// the same on a consolidation host over consCap working-set pages.
	homeOrder [vdiVMs][]pagestore.PFN
	consOrder [vdiVMs][]pagestore.PFN
	// fill is each VM's initial memory, indexed by pfn - pt.
	fill   [vdiVMs][][]byte
	days   map[int]*vdiDay
	digest uint64
}

func genVDIInputs(seed uint64) *vdiInputs {
	in := &vdiInputs{
		seed:      seed,
		traceBase: seedFor(seed, "vdi-trace"),
		pages:     pagestore.PFN(vdiAlloc / units.PageSize),
		days:      make(map[int]*vdiDay),
	}
	in.pt = pagestore.PFN(vdiAlloc.Pages()/512 + 4)
	in.rates = vdiDirtyRates(in.pages)
	r := rng.New(seedFor(seed, "vdi-ws"))
	usable := int(in.pages - in.pt)
	sizes := workingSets(vdiVMs, in.pages, r)
	for v := range in.ws {
		perm := r.Perm(usable)
		for _, p := range perm[:min(sizes[v], usable)] {
			in.ws[v] = append(in.ws[v], in.pt+pagestore.PFN(p))
		}
		for _, p := range r.Perm(usable) {
			in.homeOrder[v] = append(in.homeOrder[v], in.pt+pagestore.PFN(p))
		}
		for _, k := range r.Perm(len(in.ws[v]))[:min(in.rates.consCap, len(in.ws[v]))] {
			in.consOrder[v] = append(in.consOrder[v], in.ws[v][k])
		}
	}
	d := newInputDigest("vdi-day")
	for v := range in.ws {
		for pfn := in.pt; pfn < in.pages; pfn++ {
			p := pageContent(seed, v, pfn, 0)
			in.fill[v] = append(in.fill[v], p)
			d.bytes(p)
		}
		for _, order := range [][]pagestore.PFN{in.ws[v], in.homeOrder[v], in.consOrder[v]} {
			for _, p := range order {
				d.u64(uint64(p))
			}
		}
	}
	day := in.day(0)
	for v := 0; v < vdiVMs; v++ {
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			if day.active[v][iv] {
				d.u64(1)
			}
			w := &day.work[v][iv]
			d.u64(uint64(w.activeWrites)<<32 | uint64(w.idleWrites)<<16 | uint64(w.consWrites))
			for _, p := range w.reads {
				d.u64(uint64(p))
			}
		}
	}
	in.digest = d.sum()
	return in
}

// day returns generated day d (day 0 is generated at set-up; later days
// when the loop reaches them, each from its own substream).
//
// A day's users are a stratified sample: vdiTracePool x vdiVMs candidate
// user-days are sorted by how often their activity changes, then by how
// long they are active, and one is drawn from each run of vdiTracePool.
// Every day then spans the trace's range of users, so a run's transition
// mix does not hinge on whether a seed drew many absent or flickering
// users.
func (in *vdiInputs) day(d int) *vdiDay {
	if day, ok := in.days[d]; ok {
		return day
	}
	day := &vdiDay{}
	r := rng.New(rng.Mix64(seedFor(in.seed, "vdi-day"), uint64(d)))
	pool := make([]trace.UserDay, vdiVMs*vdiTracePool)
	for k := range pool {
		pool[k] = trace.UserDayAt(in.traceBase, uint64(d*len(pool)+k), trace.Weekday)
	}
	sort.SliceStable(pool, func(i, j int) bool {
		fi, fj := flips(&pool[i]), flips(&pool[j])
		if fi != fj {
			return fi < fj
		}
		return pool[i].ActiveIntervals() < pool[j].ActiveIntervals()
	})
	users := make([]trace.UserDay, vdiVMs)
	for i := range users {
		users[i] = pool[i*vdiTracePool+r.Intn(vdiTracePool)]
	}
	r.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	interval := time.Duration(trace.IntervalMinutes) * time.Minute
	for v := 0; v < vdiVMs; v++ {
		ud := users[v]
		day.active[v] = ud.Active
		ap := workload.NewAccessProcess(vm.Desktop, r)
		next, _ := ap.NextBurst()
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			end := time.Duration(iv+1) * interval
			w := &day.work[v][iv]
			if ud.Active[iv] {
				w.activeWrites = stochasticRound(in.rates.active, r)
			} else {
				w.idleWrites = stochasticRound(in.rates.idleHome, r)
				w.consWrites = stochasticRound(in.rates.cons, r)
			}
			// The idle process keeps running; its bursts only reach the
			// guest while the VM is consolidated and idle.
			for next < end {
				gap, pages := ap.NextBurst()
				n := stochasticRound(float64(pages)*float64(in.pages)/pagesPer4GiB, r)
				for ; n > 0; n-- {
					pfn := in.ws[v][r.Intn(len(in.ws[v]))]
					if !ud.Active[iv] {
						w.reads = append(w.reads, pfn)
					}
				}
				next += gap
			}
		}
	}
	in.days[d] = day
	return day
}

// flips counts a user-day's activity changes.
func flips(u *trace.UserDay) int {
	n := 0
	for i := 1; i < len(u.Active); i++ {
		if u.Active[i] != u.Active[i-1] {
			n++
		}
	}
	return n
}

// pageContent is version ver of a guest page: the fill is version 0 and
// every write the next version. Content is a pure function of its
// coordinates, so expected memory is a version number per page.
func pageContent(seed uint64, v int, pfn pagestore.PFN, ver uint32) []byte {
	r := rng.New(rng.Mix64(rng.Mix64(seed, uint64(v)<<32|uint64(pfn)), uint64(ver)))
	return genPage(desktopMix.draw(r), r)
}

// vdiEnv is a set-up cluster of agents with filled VMs.
type vdiEnv struct {
	in     *vdiInputs
	agents []*agent.Agent
	m      *agent.Manager
	ctl    *agent.Controller
	homes  []string
	cons   []string
	ids    [vdiVMs]pagestore.VMID
	home   [vdiVMs]string
	// ver is the version each page holds; shadow, when set, mirrors
	// every page the benchmark writes (the traced pass encodes it).
	ver    [vdiVMs][]uint32
	shadow []*pagestore.Image
	// homeNext and consNext are each VM's cursors into its homeOrder and
	// consOrder.
	homeNext, consNext [vdiVMs]int
	// dirtyAway is, in the traced pass, the set of pages written while
	// each VM ran as a partial VM: what its next reintegration carries
	// home.
	dirtyAway [vdiVMs]map[pagestore.PFN]bool
}

func (e *vdiEnv) close() {
	e.m.Close()
	for _, a := range e.agents {
		a.Close()
	}
}

func setupVDI(in *vdiInputs, withShadow bool) (*vdiEnv, error) {
	e := &vdiEnv{in: in, m: agent.NewManager()}
	start := func(name string) error {
		a := agent.New(name, vdiSecret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			return err
		}
		// The transport oasis-agentd ships by default.
		a.SetTransport(agent.TransportConfig{PoolSize: 1, PrefetchStreams: 1, UploadStreams: 1})
		e.agents = append(e.agents, a)
		return e.m.AddHost(name, a.Addr())
	}
	for i := 0; i < vdiHomes; i++ {
		e.homes = append(e.homes, fmt.Sprintf("home-%d", i))
	}
	for i := 0; i < vdiCons; i++ {
		e.cons = append(e.cons, fmt.Sprintf("cons-%d", i))
	}
	for _, name := range append(append([]string(nil), e.homes...), e.cons...) {
		if err := start(name); err != nil {
			e.close()
			return nil, err
		}
	}
	e.ctl = agent.NewController(e.m, e.homes, e.cons)
	for v := 0; v < vdiVMs; v++ {
		e.ids[v] = pagestore.VMID(vdiFirstVMID + v)
		host, err := e.ctl.CreateVM(e.ids[v], fmt.Sprintf("vdi-%d", v), vdiAlloc)
		if err != nil {
			e.close()
			return nil, err
		}
		e.home[v] = host
		e.ver[v] = make([]uint32, in.pages)
		var sh *pagestore.Image
		if withShadow {
			sh = pagestore.NewImage(vdiAlloc)
			e.shadow = append(e.shadow, sh)
		}
		for i, p := range in.fill[v] {
			pfn := in.pt + pagestore.PFN(i)
			if pagestore.IsZeroPage(p) {
				continue // untouched guest memory already reads as zeros
			}
			if err := e.m.WritePage(host, e.ids[v], pfn, p); err != nil {
				e.close()
				return nil, err
			}
			if sh != nil {
				if err := sh.Write(pfn, p); err != nil {
					e.close()
					return nil, err
				}
			}
		}
	}
	return e, nil
}

// stepKind classifies a Controller step.
type stepKind int

const (
	stepNoop stepKind = iota
	stepVacate
	stepResume
)

// placement is the cluster state the Controller and the traced replay
// must agree on after every step: each VM's location and partial flag,
// and the suspended set.
type placement struct {
	loc       [vdiVMs]string
	partial   [vdiVMs]bool
	suspended [vdiHomes]bool
}

// stepper executes one activity change: through Controller.Step in the
// untraced pass, through the Manager calls Step is made of in the traced
// replay.
type stepper interface {
	step(active []bool) (stepKind, error)
	state() placement
}

// ctlStepper drives the real Controller.
type ctlStepper struct{ e *vdiEnv }

func (s ctlStepper) state() placement {
	var p placement
	for v, id := range s.e.ids {
		p.loc[v] = s.e.ctl.Location(id)
		p.partial[v] = s.e.ctl.Partial(id)
	}
	for h, name := range s.e.homes {
		p.suspended[h] = s.e.ctl.Suspended(name)
	}
	return p
}

func (s ctlStepper) step(active []bool) (stepKind, error) {
	before := s.state()
	m := make(map[pagestore.VMID]bool, vdiVMs)
	for v, on := range active {
		if on {
			m[s.e.ids[v]] = true
		}
	}
	if err := s.e.ctl.Step(m); err != nil {
		return stepNoop, err
	}
	return classify(before, s.state()), nil
}

func classify(before, after placement) stepKind {
	for h := range before.suspended {
		switch {
		case !before.suspended[h] && after.suspended[h]:
			return stepVacate
		case before.suspended[h] && !after.suspended[h]:
			return stepResume
		}
	}
	return stepNoop
}

// vdiRun is the outcome of a vdi-day loop.
type vdiRun struct {
	vacate, resume, noop samples // ns per step
	steps                int64
	intervals            int64
	elapsed              time.Duration
	log                  []placement
	consRPC              samples // ns per consolidated ReadPage/WritePage
	homeWrites           int64
}

// loopVDI replays days until the budget is spent (or, with maxSteps > 0,
// until that many steps ran), then reads every page back from wherever
// its VM ended up. hook, when set, runs after every step with the
// step's index.
//
// Step 0 is an untimed warm-up. The Controller starts with every home
// awake, so its first step vacates every home that is all-idle at once;
// running that step first, with the activity of the day's first
// interval, leaves every timed vacate suspending one home.
func loopVDI(e *vdiEnv, st stepper, budget time.Duration, maxSteps int64, rep *report,
	hook func(i int64, p placement) error, tracedIO *lane) (*vdiRun, error) {
	out := &vdiRun{}
	active := make([]bool, vdiVMs)
	first := e.in.day(0)
	for v := range active {
		active[v] = first.active[v][0]
	}
	rep.ops(1, 0)
	if _, err := st.step(active); err != nil {
		rep.ops(0, 1)
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	out.log = append(out.log, st.state())
	if hook != nil {
		if err := hook(0, out.log[0]); err != nil {
			return nil, err
		}
	}
	out.steps++
	deadline := time.Now().Add(budget)
	start := time.Now()
	done := func() bool {
		return (maxSteps > 0 && out.steps >= maxSteps) || (maxSteps <= 0 && !time.Now().Before(deadline))
	}
days:
	for d := 0; ; d++ {
		day := e.in.day(d)
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			if done() {
				break days
			}
			out.intervals++
			for v := 0; v < vdiVMs; v++ {
				if active[v] == day.active[v][iv] {
					continue
				}
				if maxSteps > 0 && out.steps >= maxSteps {
					break days
				}
				active[v] = day.active[v][iv]
				t0 := time.Now()
				kind, err := st.step(active)
				dur := time.Since(t0)
				rep.ops(1, 0)
				if err != nil {
					rep.ops(0, 1)
					return nil, fmt.Errorf("day %d interval %d vm %d: %w", d, iv, v, err)
				}
				switch kind {
				case stepVacate:
					out.vacate.addDur(dur)
				case stepResume:
					out.resume.addDur(dur)
				default:
					out.noop.addDur(dur)
				}
				p := st.state()
				out.log = append(out.log, p)
				if hook != nil {
					if err := hook(out.steps, p); err != nil {
						return nil, err
					}
				}
				out.steps++
			}
			p := st.state()
			for v := 0; v < vdiVMs; v++ {
				if err := e.pageIO(v, &day.work[v][iv], active[v], p, out, rep, tracedIO); err != nil {
					return nil, fmt.Errorf("day %d interval %d vm %d: %w", d, iv, v, err)
				}
			}
		}
	}
	out.elapsed = time.Since(start)
	return out, e.readback(st.state(), rep)
}

// pageIO runs one VM's work for an interval: at home it dirties pages
// at the active or idle rate; consolidated, it dirties pages at the
// consolidation rate and reads its idle bursts.
func (e *vdiEnv) pageIO(v int, w *vdiInterval, active bool, p placement, out *vdiRun, rep *report, tl *lane) error {
	host := p.loc[v]
	if !p.partial[v] {
		n := w.idleWrites
		if active {
			n = w.activeWrites
		}
		for ; n > 0; n-- {
			order := e.in.homeOrder[v]
			pfn := order[e.homeNext[v]%len(order)]
			e.homeNext[v]++
			out.homeWrites++
			if err := e.pageOp(v, host, pfn, true, nil, rep, tl); err != nil {
				return err
			}
		}
		return nil
	}
	for n := w.consWrites; n > 0; n-- {
		order := e.in.consOrder[v]
		pfn := order[e.consNext[v]%len(order)]
		e.consNext[v]++
		if tl != nil {
			if e.dirtyAway[v] == nil {
				e.dirtyAway[v] = make(map[pagestore.PFN]bool)
			}
			e.dirtyAway[v][pfn] = true
		}
		if err := e.pageOp(v, host, pfn, true, &out.consRPC, rep, tl); err != nil {
			return err
		}
	}
	for _, pfn := range w.reads {
		if err := e.pageOp(v, host, pfn, false, &out.consRPC, rep, tl); err != nil {
			return err
		}
	}
	return nil
}

// pageOp writes the page's next version or reads and checks it, adding
// the RPC's time to lat when set.
func (e *vdiEnv) pageOp(v int, host string, pfn pagestore.PFN, write bool, lat *samples, rep *report, tl *lane) error {
	name := spanReadPage
	if write {
		name = spanWritePage
	}
	if tl != nil {
		tl.begin(name, 0)
	}
	t0 := time.Now()
	var err error
	if write {
		err = e.write(v, host, pfn)
	} else {
		err = e.check(v, host, pfn, rep)
	}
	if lat != nil {
		lat.addDur(time.Since(t0))
	}
	if tl != nil {
		tl.end()
	}
	rep.ops(1, 0)
	if err != nil {
		rep.ops(0, 1)
	}
	return err
}

// write stores the page's next version through the agent on host.
func (e *vdiEnv) write(v int, host string, pfn pagestore.PFN) error {
	e.ver[v][pfn]++
	p := pageContent(e.in.seed, v, pfn, e.ver[v][pfn])
	if e.shadow != nil {
		if err := e.shadow[v].Write(pfn, p); err != nil {
			return err
		}
	}
	return e.m.WritePage(host, e.ids[v], pfn, p)
}

// check reads a page through the agent on host and compares it with the
// version the benchmark last wrote.
func (e *vdiEnv) check(v int, host string, pfn pagestore.PFN, rep *report) error {
	got, err := e.m.ReadPage(host, e.ids[v], pfn)
	if err != nil {
		return err
	}
	want := pageContent(e.in.seed, v, pfn, e.ver[v][pfn])
	rep.check(bytes.Equal(got, want), "vm %04d pfn %d on %s: read version differs from version %d written",
		e.ids[v], pfn, host, e.ver[v][pfn])
	return nil
}

// readback reads every guest page from wherever its VM ended up.
func (e *vdiEnv) readback(p placement, rep *report) error {
	for v := 0; v < vdiVMs; v++ {
		for pfn := e.in.pt; pfn < e.in.pages; pfn++ {
			rep.ops(1, 0)
			if err := e.check(v, p.loc[v], pfn, rep); err != nil {
				rep.ops(0, 1)
				return fmt.Errorf("readback vm %04d pfn %d: %w", e.ids[v], pfn, err)
			}
		}
	}
	return nil
}

func setupVDIRepeated(in *vdiInputs) (*vdiEnv, samples, error) {
	var setups samples
	var env *vdiEnv
	for i := 0; i < vdiSetupReps; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = setupVDI(in, false); err != nil {
			return nil, nil, err
		}
		setups.addDur(time.Since(start))
	}
	return env, setups, nil
}

func runVDI(cfg runConfig, rep *report) error {
	in := genVDIInputs(cfg.seed)
	rep.logf("vdi-day input digest %016x", in.digest)
	env, setups, err := setupVDIRepeated(in)
	if err != nil {
		return err
	}
	defer env.close()
	run, err := loopVDI(env, ctlStepper{env}, cfg.budget, 0, rep, nil, nil)
	if err != nil {
		return err
	}
	reportVDI(rep, run)
	// The memory metric is taken in one state whatever the time of day
	// the timed phase stopped at: every user back, so every VM runs at
	// home with its image on the home's memory server. The benchmark's
	// own generated days and initial fill are dropped first.
	if err := returnAll(env, rep); err != nil {
		return err
	}
	env.in.days = nil
	env.in.fill = [vdiVMs][][]byte{}
	return rep.reportCommon(setups)
}

// returnAll runs one Controller step with every user active and checks
// that every VM is home again.
func returnAll(e *vdiEnv, rep *report) error {
	all := make(map[pagestore.VMID]bool, vdiVMs)
	for _, id := range e.ids {
		all[id] = true
	}
	rep.ops(1, 0)
	if err := e.ctl.Step(all); err != nil {
		rep.ops(0, 1)
		return fmt.Errorf("return every VM home: %w", err)
	}
	for v, id := range e.ids {
		rep.check(e.ctl.Location(id) == e.home[v] && !e.ctl.Partial(id),
			"vm %04d not home after every user returned: on %s", id, e.ctl.Location(id))
	}
	return nil
}

func reportVDI(rep *report, run *vdiRun) {
	transitions := float64(len(run.vacate) + len(run.resume))
	rep.logf("vdi-day: a warm-up step, then %d steps (%d vacate, %d resume, %d no-op) over %d intervals in %.2fs",
		run.steps-1, len(run.vacate), len(run.resume), len(run.noop), run.intervals, run.elapsed.Seconds())
	rep.logf("vdi-day: %d consolidated page RPCs (p50 %.1f us), %d writes at home; %.2fs in steps",
		len(run.consRPC), run.consRPC.pct(50)/nsPerUs, run.homeWrites,
		(run.vacate.sum()+run.resume.sum()+run.noop.sum())/1e9)
	rep.logf("transitions_per_s = %.2f vacates+resumes/s", transitions/run.elapsed.Seconds())
	rep.metric("rate_per_s", transitions/run.elapsed.Seconds(), "1/s")
	rep.latency("op", run.vacate, 90, "vacate_ms_p50/p90: home all-idle to home asleep")
	rep.latency("op2", run.resume, 90, "resume_ms_p50/p90: user back to VMs home")
}
