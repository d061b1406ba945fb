package main

import (
	"fmt"
	"runtime"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
)

// tracedClient wraps the memtap's memory-server client. It forwards the
// optional interfaces memtap probes for (GetPageStaged, BreakerState,
// ResilienceStats), so the traced memtap takes the same branches as an
// untraced one. Single-page fetches come only from the guest's faults
// and batches only from the prefetcher, so each kind records on the lane
// of the goroutine that issues it.
type tracedClient struct {
	inner    *memserver.ResilientClient
	guest    *lane
	prefetch *lane
}

func (c *tracedClient) GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	c.guest.begin(spanGetPage, 0)
	defer c.guest.end()
	return c.inner.GetPage(id, pfn)
}

func (c *tracedClient) GetPageStaged(id pagestore.VMID, pfn pagestore.PFN) ([]byte, time.Duration, time.Duration, error) {
	c.guest.begin(spanGetPage, 0)
	page, wire, decompress, err := c.inner.GetPageStaged(id, pfn)
	c.guest.stages([]string{spanRemoteFetch, spanDecompress}, []time.Duration{wire, decompress})
	c.guest.end()
	return page, wire, decompress, err
}

func (c *tracedClient) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	c.prefetch.begin(spanGetPages, 0)
	defer c.prefetch.end()
	return c.inner.GetPages(id, pfns)
}

func (c *tracedClient) Close() error { return c.inner.Close() }

func (c *tracedClient) BreakerState() memserver.BreakerState { return c.inner.BreakerState() }

func (c *tracedClient) ResilienceStats() memserver.ResilienceStats { return c.inner.ResilienceStats() }

// tracedPager wraps the memtap as the partial VM's pager.
type tracedPager struct {
	mt    *memtap.Memtap
	guest *lane
}

func (p *tracedPager) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	p.guest.begin(spanFetchPage, 0)
	defer p.guest.end()
	return p.mt.FetchPage(id, pfn)
}

// traceReattach is reattach's traced pass: an untraced loop for the
// overhead baseline, then the same cycles with every layer boundary on
// the fault and prefetch paths wrapped in spans.
func traceReattach(cfg runConfig, rep *report) (overhead, error) {
	in, err := genReattachInputs(cfg.seed)
	if err != nil {
		return overhead{}, err
	}
	rep.logf("reattach input digest %016x", in.digest)
	env, err := setupReattach(in)
	if err != nil {
		return overhead{}, err
	}
	defer env.close()
	base, err := env.loopReattach(cfg.budget/2, rep, reattachHooks{})
	if err != nil {
		return overhead{}, err
	}

	tr := newTracer()
	guest, pre := tr.lane(), tr.lane()
	hooks := reattachHooks{
		newTap: func(im *reattachImage) (*memtap.Memtap, hypervisor.Pager, error) {
			// Built the way memtap.NewWithOptions builds its default
			// client: one resilient connection named "memtap" with the
			// backoff jitter de-correlated by VM id.
			rcfg := memtap.DefaultResilience
			rcfg.JitterSeed ^= uint64(im.id)
			if rcfg.Name == "" {
				rcfg.Name = "memtap"
			}
			rc, err := memserver.DialResilient(env.addr, reattachSecret, rcfg)
			if err != nil {
				return nil, nil, fmt.Errorf("memtap: vm %04d: %w", im.id, err)
			}
			mt := memtap.NewWithClient(im.id, &tracedClient{inner: rc, guest: guest, prefetch: pre})
			mt.SetPrefetchStreams(1)
			return mt, &tracedPager{mt: mt, guest: guest}, nil
		},
		read: func(pvm *hypervisor.PartialVM, pfn pagestore.PFN) ([]byte, error) {
			guest.begin(spanRead, 0)
			defer guest.end()
			return pvm.Read(pfn)
		},
		prefetch: func(mt *memtap.Memtap, pvm *hypervisor.PartialVM) (int, error) {
			pre.begin(spanPrefetch, 0)
			defer pre.end()
			return mt.PrefetchRemaining(pvm, reattachBatch)
		},
	}
	srvBefore := env.srv.StatsSnapshot()
	runtime.GC()
	rtBefore := readRuntime()
	run, err := env.loopReattach(cfg.budget/2, rep, hooks)
	if err != nil {
		return overhead{}, err
	}
	rt := readRuntime().sub(rtBefore)
	srv := env.srv.StatsSnapshot()
	lt := tr.summarise()

	reads := lt.total[spanRead]
	faulted := lt.selfWithChild[spanRead][spanFetchPage]
	rep.metric("hypervisor.read_self_us_p50", faulted.pct(50)/nsPerUs, "us")
	rep.metric("hypervisor.fault_frac", float64(len(faulted))/float64(len(reads)), "frac")
	rep.metric("memtap.fetch_self_us_p50", lt.self[spanFetchPage].pct(50)/nsPerUs, "us")
	rep.metric("memserver.get_page_us_p50", lt.total[spanGetPage].pct(50)/nsPerUs, "us")
	rep.metric("memserver.get_page_us_p99", lt.total[spanGetPage].pct(99)/nsPerUs, "us")
	rep.metric("memserver.remote_fetch_us_p50", lt.total[spanRemoteFetch].pct(50)/nsPerUs, "us")
	rep.metric("memserver.decompress_us_p50", lt.total[spanDecompress].pct(50)/nsPerUs, "us")
	rep.metric("memserver.get_pages_ms_p50", lt.total[spanGetPages].pct(50)/nsPerMs, "ms")
	prefetch := lt.total[spanPrefetch].sum()
	rep.metric("memtap.prefetch_install_share", (prefetch-lt.total[spanGetPages].sum())/prefetch, "frac")
	served := srv.PagesServed - srvBefore.PagesServed
	rep.metric("memserver.wire_bytes_per_page", float64(srv.BytesServed-srvBefore.BytesServed)/float64(served), "B")
	cycles := float64(run.cycles)
	rep.metric("memtap.zero_pages_elided", float64(run.zeroElided)/cycles, "count")
	rep.metric("memtap.dedup_faults", float64(run.dedup)/cycles, "count")
	rep.metric("memtap.retries", float64(run.retries)/cycles, "count")
	rep.metric("reattach.alloc_bytes_per_page", rt.allocBytes/float64(run.converted+int64(len(faulted))), "B")
	rep.metric("reattach.gc_cpu_frac", rt.gcFrac(), "frac")

	// The fault's layers should account for the whole faulting read:
	// hypervisor, memtap and memserver self times plus the stages.
	fetchTotal := lt.withChild[spanRead][spanFetchPage]
	parts := faulted.pct(50) + lt.self[spanFetchPage].pct(50) + lt.self[spanGetPage].pct(50) +
		lt.total[spanRemoteFetch].pct(50) + lt.total[spanDecompress].pct(50)
	rep.logf("reattach: faulting read p50 %.2f us traced, %.2f us untraced; sum of layer self-time p50s %.2f us",
		fetchTotal.pct(50)/nsPerUs, base.idleFaults.pct(50)/nsPerUs, parts/nsPerUs)
	rep.logf("reattach: %d traced cycles, %d traced faults", run.cycles, len(faulted))
	if err := tr.write(cfg.artifact, lt); err != nil {
		return overhead{}, err
	}
	return overhead{untraced: base.idleFaults.pct(50), traced: run.idleFaults.pct(50)}, nil
}
