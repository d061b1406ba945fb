package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// DetachMeasured is one measured loopback transport: a real memory
// server, the image encoded (serial or sharded) and uploaded (PutImage
// or chunked streams) best-of-benchRuns, the server-side result verified
// byte-identical.
type DetachMeasured struct {
	Transport         string  `json:"transport"`
	UploadStreams     int     `json:"upload_streams"`
	EncodedBytes      int     `json:"encoded_bytes"`
	EncodeMillis      float64 `json:"encode_ms"`
	UploadMillis      float64 `json:"upload_ms"`
	UploadPagesPerSec float64 `json:"upload_pages_per_sec"`
}

// DetachBench is the full benchmark result; oasis-bench -json with
// -experiment detach writes it as BENCH_detach.json. The measured section
// is a best-of-N loopback run on the build machine, and MeasuredGate is
// the acceptance comparison the tests and CI assert: streamed upload
// throughput must be at least measuredNoiseFloor x serial (see PERFORMANCE.md).
type DetachBench struct {
	Experiment string `json:"experiment"`
	BenchMeta
	Measured     []DetachMeasured `json:"measured_loopback"`
	MeasuredGate Gate             `json:"measured_gate"`
	Note         string           `json:"note"`
}

// GateResult returns the measured acceptance gate (for oasis-bench's
// exit status).
func (b DetachBench) GateResult() Gate { return b.MeasuredGate }

// detachStreams is the stream count the benchmark compares against
// serial — the DefaultPoolSize the agent side uses.
const detachStreams = memserver.DefaultPoolSize

// Detach runs the parallel detach-pipeline benchmark (§4.3 pre-suspend
// upload): two measured loopback runs, serial (one PutImage over one
// connection) vs streamed (sharded encode, chunked upload over
// detachStreams lanes).
func Detach(opt Option) (DetachBench, error) {
	out := DetachBench{
		Experiment: "detach",
		BenchMeta:  benchMeta(),
		Note:       fmt.Sprintf("measured_loopback is best-of-%d on the build machine", benchRuns),
	}

	measured, err := measureDetach(opt.Seed)
	if err != nil {
		return DetachBench{}, err
	}
	out.Measured = measured
	out.MeasuredGate = measuredGate("upload_pages_per_sec", "streamed", "serial",
		measured[1].UploadPagesPerSec, measured[0].UploadPagesPerSec)
	return out, nil
}

// measureDetach stands up one loopback memory server and runs both
// transports against the same seeded 32 MiB image of incompressible
// pages: serial (one PutImage over one warmed connection) and streamed
// (sharded encode, chunked upload over a warmed pool). Encode and upload
// are each best-of-benchRuns, and each transport's server-side result is
// verified byte-identical to the source. Sharing one process and server
// keeps the serial/streamed ratio honest: both transports see the same
// heap, the same page cache, and the same background load.
func measureDetach(seed uint64) ([]DetachMeasured, error) {
	secret := []byte("oasis-bench")
	const vmid = pagestore.VMID(4343)
	alloc := 32 * units.MiB

	srv := memserver.NewServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Incompressible pages so the upload moves real bytes and the
	// snapshot actually splits into multiple chunks.
	im := pagestore.NewImage(alloc)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if r.Bool(0.25) {
			continue // leave a quarter of the pages zero, like real guests
		}
		for i := 0; i < len(page); i += 8 {
			binary.LittleEndian.PutUint64(page[i:], r.Uint64())
		}
		if err := im.Write(pfn, page); err != nil {
			return nil, err
		}
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		return nil, err
	}

	// Dial (and warm) both transports before any clock starts: the upload
	// numbers compare pipelines, not TCP/auth handshakes.
	client, err := memserver.Dial(addr.String(), secret, 0)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if _, err := client.Stats(); err != nil {
		return nil, err
	}
	pool, err := memserver.DialPool(addr.String(), secret, memserver.PoolConfig{Size: detachStreams})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	// Lanes dial lazily; touch them all concurrently (the VM does not
	// exist yet, the refusal is expected) so every lane is connected.
	var wg sync.WaitGroup
	for i := 0; i < detachStreams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.GetPage(vmid, 0) //nolint:errcheck // warm-up only
		}()
	}
	wg.Wait()

	var out []DetachMeasured
	for _, c := range []struct {
		name    string
		streams int
	}{
		{"serial", 1},
		{"streamed", detachStreams},
	} {
		var (
			snap  []byte
			pages int
		)
		encodeBest, err := bestOf(func() error {
			snap, pages, err = pagestore.EncodeAllParallel(im, c.streams)
			return err
		})
		if err != nil {
			return nil, err
		}

		upload := func() error { return client.PutImage(vmid, alloc, snap) }
		if c.streams > 1 {
			upload = func() error {
				return pool.StreamImage(vmid, alloc, snap, memserver.PutOptions{Streams: c.streams})
			}
		}
		uploadBest, err := bestOf(upload)
		if err != nil {
			return nil, err
		}

		// Both paths must leave the server holding the same image.
		got, err := srv.Store().Get(vmid)
		if err != nil {
			return nil, fmt.Errorf("%s: image missing after upload: %w", c.name, err)
		}
		canon, _, err := pagestore.EncodeAll(got)
		if err != nil {
			return nil, err
		}
		if string(canon) != string(want) {
			return nil, fmt.Errorf("%s: server-side image diverges from the source", c.name)
		}

		out = append(out, DetachMeasured{
			Transport:         c.name,
			UploadStreams:     c.streams,
			EncodedBytes:      len(snap),
			EncodeMillis:      float64(encodeBest.Microseconds()) / 1e3,
			UploadMillis:      float64(uploadBest.Microseconds()) / 1e3,
			UploadPagesPerSec: float64(pages) / uploadBest.Seconds(),
		})
	}
	return out, nil
}

// DetachReport renders the benchmark as a plain-text experiment for
// oasis-bench -experiment detach.
func DetachReport(opt Option) Report {
	var b strings.Builder
	r, err := Detach(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "detach", Title: "Parallel detach-pipeline upload benchmark", Text: b.String()}
	}
	fmt.Fprintf(&b, "measured on loopback (32 MiB incompressible image, best of %d):\n", r.Runs)
	fmt.Fprintf(&b, "%-24s %12s %12s %16s\n", "pipeline", "encode", "upload", "upload pg/s")
	for _, meas := range r.Measured {
		fmt.Fprintf(&b, "%-24s %10.1fms %10.1fms %16.0f\n",
			fmt.Sprintf("%s (%ds)", meas.Transport, meas.UploadStreams),
			meas.EncodeMillis, meas.UploadMillis, meas.UploadPagesPerSec)
	}
	fmt.Fprintf(&b, "measured gate (%s): ratio %.3f vs floor %.2f: %s\n",
		r.MeasuredGate.Comparison, r.MeasuredGate.Ratio, r.MeasuredGate.NoiseFloor, gateWord(r.MeasuredGate))
	return Report{ID: "detach", Title: "Parallel detach-pipeline upload benchmark", Text: b.String()}
}
