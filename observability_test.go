package oasis_test

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"

	"oasis"
)

// initMetrics is the default registry as the facade's imports leave it
// at init, captured before any test registers per-VM or per-host series.
var initMetrics = func() []byte {
	var buf bytes.Buffer
	if err := oasis.DefaultMetrics().WritePrometheus(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// TestRegisteredMetricsDocumented checks that every oasis_* series
// registered at init has a row in OBSERVABILITY.md, so a new or renamed
// metric cannot ship undocumented.
func TestRegisteredMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(initMetrics))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" || !strings.HasPrefix(fields[2], "oasis_") {
			continue
		}
		n++
		if !bytes.Contains(doc, []byte("`"+fields[2]+"`")) {
			t.Errorf("%s is registered but has no row in OBSERVABILITY.md", fields[2])
		}
	}
	if n == 0 {
		t.Fatal("no oasis_* series registered at init")
	}
}
