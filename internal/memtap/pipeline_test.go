package memtap

import (
	"bytes"
	"sync"
	"testing"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// TestPipelinedPrefetchConvertsToFull runs the pipelined path end to end:
// pooled connections, several streams, a real server — the VM must end up
// full with byte-identical contents and exact accounting, same as serial.
func TestPipelinedPrefetchConvertsToFull(t *testing.T) {
	alloc := 4 * units.MiB
	addr, src := startBackend(t, 88, alloc)

	res := fastCfg()
	mt, err := NewWithOptions(88, addr, secret, Options{
		Resilience:      &res,
		PoolSize:        4,
		PrefetchStreams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if got := mt.PrefetchStreams(); got != 4 {
		t.Fatalf("PrefetchStreams = %d", got)
	}

	desc := hypervisor.NewDescriptor(88, "pipelined", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := mt.PrefetchRemaining(pvm, 128)
	if err != nil {
		t.Fatal(err)
	}
	total := desc.Alloc.Pages()
	if pvm.PresentPages() != total {
		t.Fatalf("present %d of %d pages after pipelined prefetch", pvm.PresentPages(), total)
	}
	if want := int(total - desc.PageTablePages); installed != want {
		t.Fatalf("installed = %d, want %d", installed, want)
	}
	if got, want := mt.FetchedBytes(), units.Bytes(installed)*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v", got, want)
	}
	for pfn := pagestore.PFN(desc.PageTablePages); int64(pfn) < total; pfn++ {
		want, _ := src.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d corrupted by pipelined prefetch", pfn)
		}
	}
	if st := mt.Resilience(); st.State != memserver.BreakerClosed {
		t.Fatalf("pool unhealthy after clean prefetch: %+v", st)
	}
}

// TestMetricsMatchStats checks the live series against the in-process
// counters: after a concurrent fault + pipelined prefetch workload, the
// oasis_memtap_* instruments and the hypervisor's coalesced-fault counter
// must have moved by exactly what the stats report.
func TestMetricsMatchStats(t *testing.T) {
	faults0 := tel.faults.Value()
	bytes0 := tel.bytes.Value()
	coalesced := telemetry.Default.Counter("oasis_hypervisor_faults_coalesced_total", "")
	coalesced0 := coalesced.Value()
	prefetched0 := tel.prefetched.Value()

	alloc := 2 * units.MiB
	addr, _ := startBackend(t, 99, alloc)
	res := fastCfg()
	mt, err := NewWithOptions(99, addr, secret, Options{Resilience: &res, PoolSize: 2, PrefetchStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	desc := hypervisor.NewDescriptor(99, "mm", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent faults (with same-PFN collisions), then prefetch the rest.
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				pfn := pagestore.PFN(int64(desc.PageTablePages) + int64((w/2*8+i)%32))
				if _, err := pvm.Touch(pfn); err != nil {
					t.Errorf("touch: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := mt.PrefetchRemaining(pvm, 64); err != nil {
		t.Fatal(err)
	}

	if got, want := tel.faults.Value()-faults0, float64(mt.Faults()); got != want {
		t.Errorf("oasis_memtap_faults_total moved %v, stats say %v", got, want)
	}
	if got, want := tel.bytes.Value()-bytes0, float64(mt.FetchedBytes()); got != want {
		t.Errorf("oasis_memtap_fetched_bytes_total moved %v, stats say %v", got, want)
	}
	if got, want := coalesced.Value()-coalesced0, float64(pvm.CoalescedFaults()); got != want {
		t.Errorf("oasis_hypervisor_faults_coalesced_total moved %v, stats say %v", got, want)
	}
	prefetchedPages := float64(mt.FetchedBytes()/units.PageSize) - float64(mt.Faults())
	if got := tel.prefetched.Value() - prefetched0; got != prefetchedPages {
		t.Errorf("oasis_memtap_prefetched_pages_total moved %v, want %v", got, prefetchedPages)
	}
	if g := tel.inflight.Value(); g != 0 {
		t.Errorf("oasis_memtap_inflight_faults = %v after quiesce", g)
	}
}
