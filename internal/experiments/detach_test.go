package experiments

import "testing"

// TestDetachBenchAcceptance pins the upload benchmark's gate: on the
// measured loopback runs the streamed pipeline must move at least
// measuredNoiseFloor x the serial pages/sec (the noise floor; see PERFORMANCE.md).
func TestDetachBenchAcceptance(t *testing.T) {
	b, err := Detach(DefaultOption())
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
		t.Fatalf("measured %d transports, want serial and streamed", len(b.Measured))
	}
	serial, streamed := b.Measured[0], b.Measured[1]
	if serial.EncodedBytes != streamed.EncodedBytes || serial.EncodedBytes == 0 {
		t.Fatalf("transports encoded different snapshots: %d vs %d bytes",
			serial.EncodedBytes, streamed.EncodedBytes)
	}
	for _, meas := range b.Measured {
		if meas.UploadPagesPerSec <= 0 {
			t.Errorf("%s: no upload throughput measured", meas.Transport)
		}
	}

	g := b.MeasuredGate
	if g.Metric != "upload_pages_per_sec" || g.NoiseFloor != measuredNoiseFloor {
		t.Fatalf("gate misconfigured: %+v", g)
	}
	wantRatio := streamed.UploadPagesPerSec / serial.UploadPagesPerSec
	if g.Ratio != wantRatio {
		t.Fatalf("gate ratio %.4f does not match measured %.4f", g.Ratio, wantRatio)
	}
	if raceEnabled {
		t.Skip("measured throughput gate is meaningless under the race detector")
	}
	if !g.Pass {
		t.Fatalf("measured gate failed: streamed %.0f pg/s vs serial %.0f pg/s (ratio %.3f < %.2f)",
			streamed.UploadPagesPerSec, serial.UploadPagesPerSec, g.Ratio, g.NoiseFloor)
	}
}
