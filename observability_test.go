package oasis_test

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"

	"oasis"
)

// TestRegisteredMetricsDocumented checks that every oasis_* series in
// the default registry has a row in OBSERVABILITY.md, so a new or renamed
// metric cannot ship undocumented. The simulator registers its
// oasis_sim_* series lazily, so one small cluster day and one small fleet
// run first; the scrape then covers those alongside everything
// registered at init.
func TestRegisteredMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	cfg := oasis.DefaultSimConfig()
	cfg.Cluster.HomeHosts, cfg.Cluster.ConsHosts = 4, 1
	if _, err := oasis.Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := oasis.SimulateFleet(oasis.FleetConfig{
		Cell: oasis.DefaultClusterConfig(), Kind: oasis.Weekday, Seed: 1, Users: 900, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := oasis.DefaultMetrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" || !strings.HasPrefix(fields[2], "oasis_") {
			continue
		}
		seen[fields[2]] = true
		if !bytes.Contains(doc, []byte("`"+fields[2]+"`")) {
			t.Errorf("%s is registered but has no row in OBSERVABILITY.md", fields[2])
		}
	}
	for _, name := range []string{"oasis_sim_savings_percent", "oasis_sim_fleet_users"} {
		if !seen[name] {
			t.Errorf("%s not registered after a simulation run", name)
		}
	}
}
