package experiments

import "testing"

// TestReattachBenchAcceptance pins the benchmark's gate: the measured
// loopback runs must both fully convert the same VM, and the pooled
// transport must reach at least measuredNoiseFloor x the serial prefetch
// throughput (the noise floor; see PERFORMANCE.md).
func TestReattachBenchAcceptance(t *testing.T) {
	b, err := Reattach(DefaultOption())
	if err != nil {
		t.Fatal(err)
	}
	if b.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", b.SchemaVersion, BenchSchemaVersion)
	}
	if b.GitSHA == "" {
		t.Fatal("git_sha empty (want a hash or \"unknown\")")
	}
	if b.Runs != benchRuns {
		t.Fatalf("runs_per_transport = %d, want %d", b.Runs, benchRuns)
	}
	if len(b.Measured) != 2 {
		t.Fatalf("measured %d transports, want serial and pooled", len(b.Measured))
	}
	serial, pooled := b.Measured[0], b.Measured[1]
	if serial.PrefetchedPages != pooled.PrefetchedPages || serial.PrefetchedPages == 0 {
		t.Fatalf("transports converted different page counts: %d vs %d",
			serial.PrefetchedPages, pooled.PrefetchedPages)
	}
	for _, meas := range b.Measured {
		if meas.FaultP50Micros <= 0 || meas.FaultP99Micros < meas.FaultP50Micros {
			t.Errorf("%s: fault latency percentiles implausible: p50=%v p99=%v",
				meas.Transport, meas.FaultP50Micros, meas.FaultP99Micros)
		}
		if meas.PrefetchPagesPerSec <= 0 {
			t.Errorf("%s: no prefetch throughput measured", meas.Transport)
		}
	}

	g := b.MeasuredGate
	if g.Metric != "prefetch_pages_per_sec" || g.NoiseFloor != measuredNoiseFloor {
		t.Fatalf("gate misconfigured: %+v", g)
	}
	wantRatio := pooled.PrefetchPagesPerSec / serial.PrefetchPagesPerSec
	if g.Ratio != wantRatio {
		t.Fatalf("gate ratio %.4f does not match measured %.4f", g.Ratio, wantRatio)
	}
	if raceEnabled {
		t.Skip("measured throughput gate is meaningless under the race detector")
	}
	if !g.Pass {
		t.Fatalf("measured gate failed: pooled %.0f pg/s vs serial %.0f pg/s (ratio %.3f < %.2f)",
			pooled.PrefetchPagesPerSec, serial.PrefetchPagesPerSec, g.Ratio, g.NoiseFloor)
	}
}
