package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
	"oasis/internal/vm"
	"oasis/internal/workload"
)

// reattach: one loopback memory server holds several VM images. Each
// cycle takes the next image, gives it a memtap with the transport
// defaults the host agent ships and a partial VM, and runs two phases:
// idle (the guest reads its working set in AccessProcess bursts and
// faults pages in one at a time) and conversion (PrefetchRemaining on a
// second goroutine while the guest keeps reading). The read side of the
// system does nearly all the work; agent and sim are absent.

const (
	reattachImages    = 4
	reattachAlloc     = 8 * units.MiB
	reattachSetupReps = 7
	// reattachBatch is the prefetch batch the host agent uses when it
	// converts a partial VM (Agent.AdoptVM).
	reattachBatch = 1024
	// idleBursts is how many AccessProcess bursts one idle phase replays.
	idleBursts = 600
	// convGapScale compresses the AccessProcess think time between the
	// guest's bursts during conversion (a 20 s mean gap becomes 2 ms),
	// so the returning user's reads overlap the prefetch batches.
	convGapScale = 10000
	// convBursts is the length of the conversion-phase read script; it
	// repeats if a conversion outlasts it.
	convBursts = 400
)

var reattachSecret = []byte("perfbench-reattach")

// burst is one guest access burst: a think time and the pages it reads.
type burst struct {
	gap   time.Duration
	pages []pagestore.PFN
}

// reattachImage is one VM image and its guest's access script.
type reattachImage struct {
	id      pagestore.VMID
	src     *pagestore.Image
	ptPages pagestore.PFN
	idle    []burst // over the idle working set
	conv    []burst // over the whole image, with compressed gaps
}

type reattachInputs struct {
	images []*reattachImage
	digest uint64
}

// scaledCount turns a 4 GiB-VM page count into this image's count,
// rounding stochastically so small rates keep their mean.
func scaledCount(pages int, imagePages float64, r *rng.Rand) int {
	return stochasticRound(float64(pages)*imagePages/pagesPer4GiB, r)
}

func genReattachInputs(seed uint64) (*reattachInputs, error) {
	r := rng.New(seedFor(seed, "reattach"))
	d := newInputDigest("reattach")
	in := &reattachInputs{}
	wsSizes := workingSets(reattachImages, pagestore.PFN(reattachAlloc/units.PageSize), r)
	for i := 0; i < reattachImages; i++ {
		im := &reattachImage{id: pagestore.VMID(3000 + i), src: pagestore.NewImage(reattachAlloc)}
		desc := hypervisor.NewDescriptor(im.id, "reattach", reattachAlloc, 1)
		im.ptPages = pagestore.PFN(desc.PageTablePages)
		n := pagestore.PFN(im.src.NumPages())
		var live []pagestore.PFN
		for pfn := im.ptPages; pfn < n; pfn++ {
			kind := desktopMix.draw(r)
			p := genPage(kind, r)
			if err := im.src.Write(pfn, p); err != nil {
				return nil, err
			}
			d.bytes(p)
			if kind != pageZero {
				live = append(live, pfn)
			}
		}

		// The idle working set, drawn from live (non-zero) pages, is read
		// in desktop AccessProcess bursts.
		usable := int(n - im.ptPages)
		wsPages := min(wsSizes[i], len(live))
		perm := r.Perm(len(live))
		ws := make([]pagestore.PFN, wsPages)
		for j := range ws {
			ws[j] = live[perm[j]]
		}
		ap := workload.NewAccessProcess(vm.Desktop, r)
		for len(im.idle) < idleBursts {
			gap, pages := ap.NextBurst()
			bu := burst{gap: gap}
			for k := scaledCount(pages, float64(n), r); k > 0; k-- {
				bu.pages = append(bu.pages, ws[r.Intn(len(ws))])
			}
			if len(bu.pages) > 0 {
				im.idle = append(im.idle, bu)
			}
		}
		// A burst that rounds to no pages still takes its think time.
		var wait time.Duration
		for len(im.conv) < convBursts {
			gap, pages := ap.NextBurst()
			wait += gap
			bu := burst{gap: wait / convGapScale}
			for k := scaledCount(pages, float64(n), r); k > 0; k-- {
				bu.pages = append(bu.pages, im.ptPages+pagestore.PFN(r.Intn(usable)))
			}
			if len(bu.pages) > 0 {
				im.conv = append(im.conv, bu)
				wait = 0
			}
		}
		for _, s := range [][]burst{im.idle, im.conv} {
			for _, bu := range s {
				d.u64(uint64(bu.gap))
				for _, p := range bu.pages {
					d.u64(uint64(p))
				}
			}
		}
		in.images = append(in.images, im)
	}
	in.digest = d.sum()
	return in, nil
}

// reattachEnv is a set-up memory server holding every image.
type reattachEnv struct {
	in   *reattachInputs
	srv  *memserver.Server
	addr string
}

func (e *reattachEnv) close() { e.srv.Close() }

// setupReattach is the program's part of set-up: start the memory
// server and install every image, encoded with the public encoder.
func setupReattach(in *reattachInputs) (*reattachEnv, error) {
	srv := memserver.NewServer(reattachSecret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for _, im := range in.images {
		snap, _, err := pagestore.EncodeAll(im.src)
		if err == nil {
			err = srv.InstallImage(im.id, reattachAlloc, snap)
		}
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return &reattachEnv{in: in, srv: srv, addr: addr.String()}, nil
}

// setupReattachRepeated sets up reattachSetupReps times from inputs
// generated beforehand, keeping the last environment and the set-up time
// of each.
func setupReattachRepeated(in *reattachInputs) (*reattachEnv, samples, error) {
	var setups samples
	var env *reattachEnv
	for i := 0; i < reattachSetupReps; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = setupReattach(in); err != nil {
			return nil, nil, err
		}
		setups.addDur(time.Since(start))
	}
	return env, setups, nil
}

// reattachRun is the outcome of a timed reattach loop.
type reattachRun struct {
	idleFaults, convFaults samples // ns per faulting guest read
	convertTimes           samples // ns per PrefetchRemaining
	reads                  int64
	converted              int64
	cycles                 int64
	zeroElided, dedup      int64
	retries                int64
}

// reattachHooks lets the traced pass substitute instrumented parts; the
// zero value runs the untraced path.
type reattachHooks struct {
	// newTap builds the memtap and the pager the partial VM faults
	// through.
	newTap func(im *reattachImage) (*memtap.Memtap, hypervisor.Pager, error)
	// read and prefetch wrap the guest read and the conversion call.
	read     func(pvm *hypervisor.PartialVM, pfn pagestore.PFN) ([]byte, error)
	prefetch func(mt *memtap.Memtap, pvm *hypervisor.PartialVM) (int, error)
}

func (e *reattachEnv) defaultTap(im *reattachImage) (*memtap.Memtap, hypervisor.Pager, error) {
	// The transport oasis-agentd ships: one resilient connection, serial
	// prefetch.
	mt, err := memtap.NewWithOptions(im.id, e.addr, reattachSecret, memtap.Options{PoolSize: 1, PrefetchStreams: 1})
	return mt, mt, err
}

// loopReattach converts images round-robin until the budget is spent,
// checking every page the guest faulted and every page prefetched.
func (e *reattachEnv) loopReattach(budget time.Duration, rep *report, h reattachHooks) (*reattachRun, error) {
	if h.newTap == nil {
		h.newTap = e.defaultTap
	}
	if h.read == nil {
		h.read = func(pvm *hypervisor.PartialVM, pfn pagestore.PFN) ([]byte, error) { return pvm.Read(pfn) }
	}
	if h.prefetch == nil {
		h.prefetch = func(mt *memtap.Memtap, pvm *hypervisor.PartialVM) (int, error) {
			return mt.PrefetchRemaining(pvm, reattachBatch)
		}
	}
	out := &reattachRun{}
	deadline := time.Now().Add(budget)
	for c := 0; c < reattachImages || time.Now().Before(deadline); c++ {
		im := e.in.images[c%len(e.in.images)]
		if err := e.cycle(im, out, rep, h); err != nil {
			return nil, fmt.Errorf("vm %04d cycle %d: %w", im.id, c, err)
		}
		out.cycles++
	}
	return out, nil
}

// guestRead performs one timed guest read, recording it as a fault when
// the partial VM's fault counter advanced, and checks the contents.
func (e *reattachEnv) guestRead(im *reattachImage, pvm *hypervisor.PartialVM, pfn pagestore.PFN,
	faults *samples, out *reattachRun, rep *report, h reattachHooks) error {
	before := pvm.Faults()
	start := time.Now()
	got, err := h.read(pvm, pfn)
	d := time.Since(start)
	rep.ops(1, 0)
	out.reads++
	if err != nil {
		rep.ops(0, 1)
		return fmt.Errorf("read pfn %d: %w", pfn, err)
	}
	if pvm.Faults() > before {
		faults.addDur(d)
	}
	want, _ := im.src.Read(pfn)
	rep.check(bytes.Equal(got, want), "vm %04d pfn %d: guest read differs from the source image", im.id, pfn)
	return nil
}

func (e *reattachEnv) cycle(im *reattachImage, out *reattachRun, rep *report, h reattachHooks) error {
	mt, pager, err := h.newTap(im)
	if err != nil {
		return err
	}
	defer mt.Close()
	desc := hypervisor.NewDescriptor(im.id, "reattach", reattachAlloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, pager)
	if err != nil {
		return err
	}

	// Idle phase: closed-loop reads of the working set, burst after
	// burst; the think time between bursts is not slept.
	for _, bu := range im.idle {
		for _, pfn := range bu.pages {
			if err := e.guestRead(im, pvm, pfn, &out.idleFaults, out, rep, h); err != nil {
				return err
			}
		}
	}

	// Conversion: PrefetchRemaining on its own goroutine while the guest
	// keeps reading with compressed think times.
	type result struct {
		n   int
		d   time.Duration
		err error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		n, err := h.prefetch(mt, pvm)
		done <- result{n, time.Since(start), err}
	}()
	var res result
	var guestErr error
guest:
	for i := 0; ; i++ {
		bu := im.conv[i%len(im.conv)]
		for _, pfn := range bu.pages {
			if guestErr = e.guestRead(im, pvm, pfn, &out.convFaults, out, rep, h); guestErr != nil {
				res = <-done
				break guest
			}
		}
		select {
		case res = <-done:
			break guest
		case <-time.After(bu.gap):
		}
	}
	if guestErr != nil {
		return guestErr
	}
	rep.ops(1, 0)
	if res.err != nil {
		rep.ops(0, 1)
		return fmt.Errorf("prefetch: %w", res.err)
	}
	out.converted += int64(res.n)
	out.convertTimes.addDur(res.d)
	out.zeroElided += mt.ZeroPagesElided()
	out.dedup += mt.DedupedFaults()
	out.retries += mt.Resilience().Retries

	// After conversion no page may be absent, and every page must match
	// its source.
	absent := pvm.AbsentPages(0)
	rep.check(len(absent) == 0, "vm %04d: %d pages still absent after conversion", im.id, len(absent))
	for pfn := im.ptPages; pfn < pagestore.PFN(im.src.NumPages()); pfn++ {
		got, err := pvm.Image().Read(pfn)
		if err != nil {
			return err
		}
		want, _ := im.src.Read(pfn)
		if !bytes.Equal(got, want) {
			rep.check(false, "vm %04d pfn %d: converted page differs from the source image", im.id, pfn)
			break
		}
	}
	return nil
}

func (r *reattachRun) convertRate() float64 {
	return float64(r.converted) / (r.convertTimes.sum() / 1e9)
}

func runReattach(cfg runConfig, rep *report) error {
	in, err := genReattachInputs(cfg.seed)
	if err != nil {
		return err
	}
	rep.logf("reattach input digest %016x", in.digest)
	env, setups, err := setupReattachRepeated(in)
	if err != nil {
		return err
	}
	defer env.close()
	run, err := env.loopReattach(cfg.budget, rep, reattachHooks{})
	if err != nil {
		return err
	}
	reportReattach(rep, run)
	return rep.reportCommon(setups)
}

func reportReattach(rep *report, run *reattachRun) {
	rep.logf("reattach: %d cycles, %d guest reads, %d idle faults, %d conversion faults, %d pages converted",
		run.cycles, run.reads, len(run.idleFaults), len(run.convFaults), run.converted)
	rep.logf("convert_pages_per_s = %.1f pages/s", run.convertRate())
	rep.metric("rate_per_s", run.convertRate(), "1/s")
	rep.latency("op", run.idleFaults, 99, "fault_us_p50/p99: idle-phase guest read that faulted")
	rep.latency("op2", run.convertTimes, 90, "partial-to-full conversion of one VM (PrefetchRemaining)")
	all := append(append(samples(nil), run.idleFaults...), run.convFaults...)
	rep.logf("every faulting read: fault_us_p50 = %.2f us, fault_us_p99 = %.2f us (n=%d); during conversion alone p50 %.2f us p90 %.2f us (n=%d)",
		all.pct(50)/nsPerUs, all.pct(99)/nsPerUs, len(all),
		run.convFaults.pct(50)/nsPerUs, run.convFaults.pct(90)/nsPerUs, len(run.convFaults))
}
