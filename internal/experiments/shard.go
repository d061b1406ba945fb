package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// Fabric geometry the benchmark exercises: the smallest shape where one
// backend can die while every page keeps a live replica.
const (
	shardBackends = 3
	shardReplicas = 2
)

// ShardMeasured is one measured loopback run: a real 3-backend 2-replica
// fabric, a seeded image streamed through it, one backend killed, and
// every page read back through the survivors — zero failed reads and a
// byte-identical reassembly are part of the result, not just timings.
type ShardMeasured struct {
	Backends          int     `json:"backends"`
	Replicas          int     `json:"replicas"`
	Pages             int     `json:"pages"`
	EncodedBytes      int     `json:"encoded_bytes"`
	UploadMillis      float64 `json:"upload_ms"`
	UploadPagesPerSec float64 `json:"upload_pages_per_sec"`
	KilledBackend     int     `json:"killed_backend"`
	ReadsAfterKill    int     `json:"reads_after_kill"`
	FailedReads       int     `json:"failed_reads"`
	ReadMillis        float64 `json:"read_ms"`
	ByteIdentical     bool    `json:"byte_identical"`
}

// ShardBench is the full benchmark result; oasis-bench -experiment shard
// with -json writes it as BENCH_shard.json.
type ShardBench struct {
	Experiment string        `json:"experiment"`
	Measured   ShardMeasured `json:"measured_loopback"`
	Note       string        `json:"note"`
}

// Shard runs the sharded memory-server fabric benchmark: a measured
// loopback kill-one-backend run proving zero failed reads and
// bit-identical reassembly.
func Shard(opt Option) (ShardBench, error) {
	meas, err := measureShard(opt.Seed)
	if err != nil {
		return ShardBench{}, err
	}
	return ShardBench{
		Experiment: "shard",
		Measured:   meas,
		Note:       "measured_loopback is one run on the build machine",
	}, nil
}

// measureShard stands up a loopback 3-backend fabric, streams a seeded
// 32 MiB image through it with 2-way replication, kills one backend, and
// reads every page back through the survivors, verifying the reassembly
// re-encodes to exactly the source snapshot.
func measureShard(seed uint64) (ShardMeasured, error) {
	secret := []byte("oasis-bench")
	const vmid = pagestore.VMID(4747)
	alloc := 32 * units.MiB

	servers := make([]*memserver.Server, shardBackends)
	addrs := make([]string, shardBackends)
	for i := range servers {
		servers[i] = memserver.NewServer(secret, nil)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return ShardMeasured{}, err
		}
		defer servers[i].Close()
		addrs[i] = addr.String()
	}
	fab, err := shard.Dial(addrs, secret, shard.Config{
		Replicas:   shardReplicas,
		RangePages: 64, // spread a small image across many placement ranges
		Pool: memserver.PoolConfig{
			Size: 2,
			Resilience: memserver.ResilientConfig{
				Name:             "bench-shard",
				MaxRetries:       1,
				MutatingRetries:  1,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       4 * time.Millisecond,
				BreakerThreshold: 2,
				BreakerCooldown:  100 * time.Millisecond,
				DialTimeout:      2 * time.Second,
				JitterSeed:       seed,
			},
		},
	})
	if err != nil {
		return ShardMeasured{}, err
	}
	defer fab.Close()

	// Incompressible pages (with a zero tail, like real guests) so the
	// upload moves real bytes across every backend.
	im := pagestore.NewImage(alloc)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if r.Bool(0.25) {
			continue
		}
		for i := 0; i < len(page); i += 8 {
			binary.LittleEndian.PutUint64(page[i:], r.Uint64())
		}
		if err := im.Write(pfn, page); err != nil {
			return ShardMeasured{}, err
		}
	}
	snap, pages, err := pagestore.EncodeAll(im)
	if err != nil {
		return ShardMeasured{}, err
	}

	t0 := time.Now()
	if err := fab.StreamImage(vmid, alloc, snap, memserver.PutOptions{Streams: 2}); err != nil {
		return ShardMeasured{}, err
	}
	uploadSec := time.Since(t0).Seconds()

	// Kill one backend. With 2-way replication every page range keeps a
	// live replica, so the read-back below must not lose a single page.
	const killed = 1
	servers[killed].Close()

	back := pagestore.NewImage(alloc)
	reads, failed := 0, 0
	t0 = time.Now()
	var batch []pagestore.PFN
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		reads += len(batch)
		got, err := fab.GetPages(vmid, batch)
		if err != nil {
			failed += len(batch)
			batch = batch[:0]
			return nil // counted, keep sweeping
		}
		for _, pfn := range batch {
			p, ok := got[pfn]
			if !ok {
				failed++
				continue
			}
			if err := back.Write(pfn, p); err != nil {
				return err
			}
		}
		batch = batch[:0]
		return nil
	}
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		batch = append(batch, pfn)
		if len(batch) == 64 {
			if err := flush(); err != nil {
				return ShardMeasured{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return ShardMeasured{}, err
	}
	readSec := time.Since(t0).Seconds()

	canon, _, err := pagestore.EncodeAll(back)
	if err != nil {
		return ShardMeasured{}, err
	}

	return ShardMeasured{
		Backends:          shardBackends,
		Replicas:          shardReplicas,
		Pages:             pages,
		EncodedBytes:      len(snap),
		UploadMillis:      uploadSec * 1e3,
		UploadPagesPerSec: float64(pages) / uploadSec,
		KilledBackend:     killed,
		ReadsAfterKill:    reads,
		FailedReads:       failed,
		ReadMillis:        readSec * 1e3,
		ByteIdentical:     string(canon) == string(snap),
	}, nil
}

// ShardReport renders the benchmark as a plain-text experiment for
// oasis-bench -experiment shard.
func ShardReport(opt Option) Report {
	var b strings.Builder
	r, err := Shard(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "shard", Title: "Sharded memory-server fabric benchmark", Text: b.String()}
	}
	m := r.Measured
	fmt.Fprintf(&b, "measured on loopback (32 MiB image, %d backends, R=%d):\n", m.Backends, m.Replicas)
	fmt.Fprintf(&b, "  upload: %d pages in %.1fms (%.0f pages/sec, %d-way replicated)\n",
		m.Pages, m.UploadMillis, m.UploadPagesPerSec, m.Replicas)
	fmt.Fprintf(&b, "  killed backend %d, swept %d reads: %d failed, reassembly byte-identical: %v (%.1fms)\n",
		m.KilledBackend, m.ReadsAfterKill, m.FailedReads, m.ByteIdentical, m.ReadMillis)
	return Report{ID: "shard", Title: "Sharded memory-server fabric benchmark", Text: b.String()}
}
