package main

import (
	"fmt"
	"time"

	"oasis/internal/pagestore"
)

// replayStepper replays vdi-day's transitions through the Manager calls
// Controller.Step is made of — PartialMigrate, Suspend, Wake and
// Reintegrate, in the Controller's order — with a span around each, and
// keeps its own copy of the Controller's bookkeeping.
type replayStepper struct {
	e  *vdiEnv
	ln *lane
	p  placement

	shadowEpoch [vdiVMs]uint64

	uploadedPerVacate samples // memory-server pages per vacate
	fullUploads       int
	uploads           int
	encodeNS          float64
	encodePages       int
	dirtyPerReint     samples
}

func newReplayStepper(e *vdiEnv, ln *lane) *replayStepper {
	s := &replayStepper{e: e, ln: ln}
	for v := range e.ids {
		s.p.loc[v] = e.home[v]
	}
	return s
}

func (s *replayStepper) state() placement { return s.p }

func (s *replayStepper) homeIndex(name string) int {
	for i, h := range s.e.homes {
		if h == name {
			return i
		}
	}
	return -1
}

// homedOn lists the VMs owned by home in id order (ids ascend with the
// VM index).
func (s *replayStepper) homedOn(home string) []int {
	var out []int
	for v := range s.e.ids {
		if s.e.home[v] == home {
			out = append(out, v)
		}
	}
	return out
}

// pickCons mirrors the Controller: the consolidation host with the
// fewest partial VMs, ties to the first in roster order.
func (s *replayStepper) pickCons() string {
	best, bestN := "", int(^uint(0)>>1)
	for _, h := range s.e.cons {
		n := 0
		for v := range s.e.ids {
			if s.p.loc[v] == h && s.p.partial[v] {
				n++
			}
		}
		if n < bestN {
			best, bestN = h, n
		}
	}
	return best
}

// call runs one Manager call inside a span.
func (s *replayStepper) call(name string, fn func() error) error {
	s.ln.begin(name, 0)
	defer s.ln.end()
	return fn()
}

func (s *replayStepper) step(active []bool) (stepKind, error) {
	m := s.e.m
	kind := stepNoop
	// 1. A consolidated VM's user returned: wake its home and bring all
	// of the home's partial VMs back.
	for v, on := range active {
		if !on || !s.p.partial[v] {
			continue
		}
		home := s.e.home[v]
		hi := s.homeIndex(home)
		s.ln.begin(spanResume, 0)
		if s.p.suspended[hi] {
			if err := s.call(spanWake, func() error { return m.Wake(home) }); err != nil {
				s.ln.end()
				return kind, fmt.Errorf("wake %s: %w", home, err)
			}
			s.p.suspended[hi] = false
		}
		for _, sib := range s.homedOn(home) {
			if !s.p.partial[sib] {
				continue
			}
			id, loc := s.e.ids[sib], s.p.loc[sib]
			if err := s.call(spanReintegrate, func() error { return m.Reintegrate(id, loc, home) }); err != nil {
				s.ln.end()
				return kind, fmt.Errorf("reintegrate %04d: %w", id, err)
			}
			s.dirtyPerReint.add(float64(len(s.e.dirtyAway[sib])))
			s.e.dirtyAway[sib] = nil
			s.p.partial[sib] = false
			s.p.loc[sib] = home
		}
		s.ln.end()
		kind = stepResume
	}

	// 2. Vacate every awake home whose VMs are all idle and at home.
	for hi, home := range s.e.homes {
		if s.p.suspended[hi] {
			continue
		}
		vms := s.homedOn(home)
		vacatable := len(vms) > 0
		for _, v := range vms {
			if active[v] || s.p.loc[v] != home {
				vacatable = false
				break
			}
		}
		if !vacatable {
			continue
		}
		if err := s.vacate(hi, home, vms); err != nil {
			return kind, err
		}
		kind = stepVacate
	}
	return kind, nil
}

// vacate partial-migrates each of home's VMs and suspends it. The home's
// memory-server counters are read around every PartialMigrate: an
// upload whose page count equals the VM's resident pages is a full
// image, any other a differential one. HostStats runs inside the vacate
// span, so it adds to vdi-day's trace overhead.
func (s *replayStepper) vacate(hi int, home string, vms []int) error {
	m := s.e.m
	uploaded, err := m.HostStats(home)
	if err != nil {
		return err
	}
	full := make([]bool, len(vms))
	var pages int64
	s.ln.begin(spanVacate, 0)
	for i, v := range vms {
		dest := s.pickCons()
		id := s.e.ids[v]
		resident := s.e.shadow[v].TouchedPages()
		if err := s.call(spanPartialMigrate, func() error { return m.PartialMigrate(id, home, dest) }); err != nil {
			s.ln.end()
			return fmt.Errorf("partial migrate %04d: %w", id, err)
		}
		s.p.partial[v] = true
		s.p.loc[v] = dest
		after, err := m.HostStats(home)
		if err != nil {
			s.ln.end()
			return err
		}
		delta := after.MemServer.PagesUploaded - uploaded.MemServer.PagesUploaded
		uploaded = after
		pages += delta
		full[i] = delta == resident
		if full[i] {
			s.fullUploads++
		}
		s.uploads++
	}
	if err := s.call(spanSuspend, func() error { return m.Suspend(home) }); err != nil {
		s.ln.end()
		return fmt.Errorf("suspend %s: %w", home, err)
	}
	s.p.suspended[hi] = true
	op := s.ln.end().Op
	s.uploadedPerVacate.add(float64(pages))

	// The public encoder on the benchmark's shadow copy of each vacated
	// VM, encoding what the agent uploaded: the full image or the pages
	// dirtied since the previous upload.
	for i, v := range vms {
		sh := s.e.shadow[v]
		s.ln.begin(spanEncode, op)
		t0 := time.Now()
		var n int
		if full[i] {
			_, n, err = pagestore.EncodeAll(sh)
		} else {
			_, n, err = pagestore.EncodeDirtySince(sh, s.shadowEpoch[v])
		}
		s.encodeNS += float64(time.Since(t0))
		s.ln.end()
		if err != nil {
			return err
		}
		s.encodePages += n
		s.shadowEpoch[v] = sh.NextEpoch()
	}
	return nil
}

// traceVDI is vdi-day's traced pass: the untraced Controller run for the
// seed (the oracle and overhead baseline), then a traced replay of the
// same steps on a fresh cluster that must reach the same placement and
// suspended set after every step.
func traceVDI(cfg runConfig, rep *report) (overhead, error) {
	in := genVDIInputs(cfg.seed)
	rep.logf("vdi-day input digest %016x", in.digest)
	env, err := setupVDI(in, false)
	if err != nil {
		return overhead{}, err
	}
	base, err := loopVDI(env, ctlStepper{env}, cfg.budget/2, 0, rep, nil, nil)
	env.close()
	if err != nil {
		return overhead{}, err
	}

	env, err = setupVDI(in, true)
	if err != nil {
		return overhead{}, err
	}
	defer env.close()
	tr := newTracer()
	ln := tr.lane()
	rs := newReplayStepper(env, ln)
	mismatches := 0
	run, err := loopVDI(env, rs, 0, int64(len(base.log)), rep, func(i int64, p placement) error {
		if p != base.log[i] {
			mismatches++
		}
		return nil
	}, ln)
	if err != nil {
		return overhead{}, err
	}
	rep.check(mismatches == 0, "vdi-day replay: %d of %d steps left a different placement than Controller.Step",
		mismatches, run.steps)
	rep.check(run.steps == base.steps, "vdi-day replay: %d steps replayed, Controller ran %d", run.steps, base.steps)

	lt := tr.summarise()
	rep.metric("agent.partial_migrate_ms_p50", lt.total[spanPartialMigrate].pct(50)/nsPerMs, "ms")
	rep.metric("agent.partial_migrate_ms_p90", lt.total[spanPartialMigrate].pct(90)/nsPerMs, "ms")
	rep.metric("agent.suspend_ms_p50", lt.total[spanSuspend].pct(50)/nsPerMs, "ms")
	rep.metric("agent.wake_ms_p50", lt.total[spanWake].pct(50)/nsPerMs, "ms")
	rep.metric("agent.reintegrate_ms_p50", lt.total[spanReintegrate].pct(50)/nsPerMs, "ms")
	rep.metric("agent.reintegrate_ms_p90", lt.total[spanReintegrate].pct(90)/nsPerMs, "ms")
	rep.metric("agent.step_noop_us_p50", base.noop.pct(50)/nsPerUs, "us")
	rep.metric("memserver.pages_uploaded_per_vacate", rs.uploadedPerVacate.mean(), "count")
	rep.metric("memserver.full_upload_frac", float64(rs.fullUploads)/float64(rs.uploads), "frac")
	rep.metric("pagestore.encode_us_per_page", rs.encodeNS/nsPerUs/float64(rs.encodePages), "us")
	rep.metric("hypervisor.dirty_pages_per_reintegrate", rs.dirtyPerReint.mean(), "count")
	rep.metric("agent.page_rpc_us_p50", base.consRPC.pct(50)/nsPerUs, "us")
	rep.logf("vdi-day: replayed %d steps (%d vacates, %d resumes) with identical placement", run.steps,
		len(lt.total[spanVacate]), len(lt.total[spanResume]))
	if err := tr.write(cfg.artifact, lt); err != nil {
		return overhead{}, err
	}
	return overhead{untraced: base.vacate.pct(50), traced: lt.total[spanVacate].pct(50)}, nil
}
