package hypervisor

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// blockingPager releases fetches only when the test says so, letting the
// tests below line up several faults inside the fetch window. A non-nil
// err fails every fetch.
type blockingPager struct {
	gate    chan struct{}
	fetches atomic.Int64
	fill    func(pfn pagestore.PFN) []byte
	err     error
}

func (p *blockingPager) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	p.fetches.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.fill(pfn), nil
}

// touchAll starts one Touch per pfn and returns a func that waits for
// them and returns their errors in order.
func touchAll(vm *PartialVM, pfns []pagestore.PFN) (wait func() []error) {
	var wg sync.WaitGroup
	errs := make([]error, len(pfns))
	for i, pfn := range pfns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = vm.Touch(pfn)
		}()
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

func repeatPFN(pfn pagestore.PFN, k int) []pagestore.PFN {
	out := make([]pagestore.PFN, k)
	for i := range out {
		out[i] = pfn
	}
	return out
}

func pageOf(pfn pagestore.PFN) []byte {
	return bytes.Repeat([]byte{byte(pfn%251 + 1)}, int(units.PageSize))
}

// TestTouchConcurrentSamePFN proves the fault path does not hold vm.mu
// across the pager call — K goroutines faulting K distinct absent pages
// must all be inside FetchPage at once — and that K more faults of one
// shared page make a single pager call between them. When released,
// every page is installed once and counted once.
func TestTouchConcurrentSamePFN(t *testing.T) {
	const k = 8
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf}
	desc := NewDescriptor(77, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	base := pagestore.PFN(desc.PageTablePages)
	shared := base + k
	pfns := repeatPFN(shared, k)
	for i := 0; i < k; i++ {
		pfns = append(pfns, base+pagestore.PFN(i))
	}
	wait := touchAll(vm, pfns)
	// K distinct pages plus the shared one reach the pager concurrently
	// (impossible with a lock-across-fetch path, which would admit one
	// at a time); the shared page's other K-1 faults join its fetch.
	for pager.fetches.Load() < k+1 || pager.fetches.Load()+vm.CoalescedFaults() < 2*k {
		runtime.Gosched()
	}
	close(pager.gate)
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}

	if n := pager.fetches.Load(); n != k+1 {
		t.Fatalf("pager called %d times, want %d (one per page)", n, k+1)
	}
	if got := vm.Faults(); got != k+1 {
		t.Fatalf("Faults = %d, want %d", got, k+1)
	}
	if got := vm.FetchedBytes(); got != (k+1)*units.PageSize {
		t.Fatalf("FetchedBytes = %v, want %d pages", got, k+1)
	}
	for i := 0; i <= k; i++ {
		pfn := base + pagestore.PFN(i)
		got, err := vm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageOf(pfn)) {
			t.Fatalf("pfn %d corrupted by concurrent faults", pfn)
		}
	}
}

// TestSingleFlightDedup: K concurrent faults on one PFN make exactly one
// pager call, every faulter gets the page (none lost), and the
// accounting counts the page once.
func TestSingleFlightDedup(t *testing.T) {
	const k = 64
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf}
	desc := NewDescriptor(80, "sf", 2*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages) + 17
	wait := touchAll(vm, repeatPFN(pfn, k))
	// Wait until every faulter is inside the pager or has joined an
	// in-flight entry.
	for pager.fetches.Load()+vm.CoalescedFaults() < k {
		runtime.Gosched()
	}
	close(pager.gate)
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("faulter %d lost: %v", i, err)
		}
	}

	if n := pager.fetches.Load(); n != 1 {
		t.Fatalf("%d concurrent faults made %d pager calls, want exactly 1", k, n)
	}
	if vm.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1 (leader only)", vm.Faults())
	}
	if vm.CoalescedFaults() != k-1 {
		t.Fatalf("CoalescedFaults = %d, want %d", vm.CoalescedFaults(), k-1)
	}
	if vm.FetchedBytes() != units.PageSize {
		t.Fatalf("FetchedBytes = %v, want one page", vm.FetchedBytes())
	}
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageOf(pfn)) {
		t.Fatal("coalesced fault installed wrong page contents")
	}
}

// TestSingleFlightSharesErrors checks followers share the leader's
// failure instead of hanging or retrying the fetch once each.
func TestSingleFlightSharesErrors(t *testing.T) {
	const k = 16
	boom := errors.New("backend detonated")
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf, err: boom}
	desc := NewDescriptor(81, "sf", units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	present := vm.PresentPages()
	wait := touchAll(vm, repeatPFN(pagestore.PFN(desc.PageTablePages)+5, k))
	for pager.fetches.Load()+vm.CoalescedFaults() < k {
		runtime.Gosched()
	}
	close(pager.gate)
	for i, err := range wait() {
		if !errors.Is(err, boom) {
			t.Fatalf("faulter %d: err = %v, want the shared leader error", i, err)
		}
	}

	if n := pager.fetches.Load(); n != 1 {
		t.Fatalf("failing fetch made %d pager calls, want 1", n)
	}
	if vm.Faults() != 0 || vm.FetchedBytes() != 0 || vm.PresentPages() != present {
		t.Fatalf("failed fetch was installed or counted: faults=%d bytes=%v present=%d",
			vm.Faults(), vm.FetchedBytes(), vm.PresentPages())
	}
}

// TestSingleFlightRefetchesAfterCompletion: the in-flight entry must be
// cleared once the leader finishes, so a later fault on a page that is
// still absent (its fetch failed) calls the pager afresh instead of
// joining a finished fetch; a fault on a page already installed makes
// no call at all.
func TestSingleFlightRefetchesAfterCompletion(t *testing.T) {
	boom := errors.New("transient")
	pager := &blockingPager{fill: pageOf, err: boom} // nil gate: no blocking
	desc := NewDescriptor(82, "sf", units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages) + 8
	if _, err := vm.Touch(pfn); !errors.Is(err, boom) {
		t.Fatalf("first touch: err = %v, want %v", err, boom)
	}
	pager.err = nil
	for i := 0; i < 2; i++ {
		if _, err := vm.Touch(pfn); err != nil {
			t.Fatal(err)
		}
	}
	if n := pager.fetches.Load(); n != 2 {
		t.Fatalf("sequential faults made %d pager calls, want 2 (stale in-flight entry?)", n)
	}
	if vm.CoalescedFaults() != 0 {
		t.Fatal("sequential faults were wrongly coalesced")
	}
	if vm.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", vm.Faults())
	}
}

// secondTouchPager wraps a pager so that while it returns the leader's
// page it starts a second Touch of the same PFN, and waits until that
// Touch has either reached the pager itself or joined the leader's
// in-flight fetch. This is the window between a fetch completing and
// its page being installed.
type secondTouchPager struct {
	inner  *blockingPager
	vm     *PartialVM
	second chan error
}

func (p *secondTouchPager) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	page, err := p.inner.FetchPage(id, pfn)
	if p.inner.fetches.Load() == 1 {
		go func() {
			_, err := p.vm.Touch(pfn)
			p.second <- err
		}()
		for p.inner.fetches.Load() < 2 && p.vm.CoalescedFaults() == 0 {
			runtime.Gosched()
		}
	}
	return page, err
}

// TestTouchDuringInstallWindowIsCoalesced is the regression test for
// a fault landing after its page's fetch returned but before the page
// was installed: it must join the in-flight fetch, not fetch the page a
// second time.
func TestTouchDuringInstallWindowIsCoalesced(t *testing.T) {
	inner := &blockingPager{fill: pageOf}
	pager := &secondTouchPager{inner: inner, second: make(chan error, 1)}
	desc := NewDescriptor(83, "window", units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pager.vm = vm
	pfn := pagestore.PFN(desc.PageTablePages)
	if _, err := vm.Touch(pfn); err != nil {
		t.Fatal(err)
	}
	if err := <-pager.second; err != nil {
		t.Fatal(err)
	}
	if n := inner.fetches.Load(); n != 1 {
		t.Fatalf("pager called %d times for one page, want 1", n)
	}
	if vm.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", vm.Faults())
	}
}

// TestTouchLosesToGuestWrite checks the recheck-after-fetch: a guest write
// that lands while the fetch is in flight must win over the stale fetched
// copy.
func TestTouchLosesToGuestWrite(t *testing.T) {
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf}
	desc := NewDescriptor(78, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages)
	want := bytes.Repeat([]byte{0xAB}, int(units.PageSize))

	done := make(chan error, 1)
	go func() {
		_, err := vm.Touch(pfn)
		done <- err
	}()
	for pager.fetches.Load() == 0 {
		runtime.Gosched()
	}
	// The guest overwrites the page while the fetch is on the wire.
	if err := vm.Write(pfn, want); err != nil {
		t.Fatal(err)
	}
	close(pager.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale fetched page overwrote a newer guest write")
	}
	if vm.Faults() != 0 {
		t.Fatalf("Faults = %d, want 0: the lost install must not be counted", vm.Faults())
	}
	if _, ok := vm.written[pfn]; !ok {
		t.Fatal("page lost its dirty mark")
	}
}

// TestInstallRacesFaults drives Install (the prefetcher) against Touch
// (guest faults) over the whole address space; every page must end up
// present exactly once with correct contents, and fault accounting plus
// prefetch accounting must partition the pageable space.
func TestInstallRacesFaults(t *testing.T) {
	pager := &blockingPager{fill: pageOf} // nil gate: fetches return immediately
	desc := NewDescriptor(79, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	npages := desc.Alloc.Pages()
	start := pagestore.PFN(desc.PageTablePages)

	var installed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // prefetcher sweeping forward
		defer wg.Done()
		for pfn := start; int64(pfn) < npages; pfn++ {
			ok, err := vm.Install(pfn, pageOf(pfn))
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				installed.Add(1)
			}
		}
	}()
	go func() { // guest faulting backward
		defer wg.Done()
		for pfn := pagestore.PFN(npages - 1); pfn >= start; pfn-- {
			if _, err := vm.Touch(pfn); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := vm.PresentPages(); got != npages {
		t.Fatalf("PresentPages = %d, want %d", got, npages)
	}
	pageable := npages - desc.PageTablePages
	if total := installed.Load() + vm.Faults(); total != pageable {
		t.Fatalf("installs(%d) + faults(%d) = %d, want exactly %d: a page was double-counted or lost",
			installed.Load(), vm.Faults(), total, pageable)
	}
	if got, want := vm.FetchedBytes(), units.Bytes(vm.Faults())*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v", got, want)
	}
	for pfn := start; int64(pfn) < npages; pfn++ {
		got, err := vm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageOf(pfn)) {
			t.Fatalf("pfn %d corrupted", pfn)
		}
	}
}
