package core

import (
	"strings"
	"testing"

	"split/internal/place"
)

// TestPlacementAblation: the heavy-scenario fleet comparison must cover
// every placement policy, and load-aware placement (least-loaded) must beat
// load-blind round-robin on the violation rate at 2 devices — the whole
// point of consulting the fleet load view.
func TestPlacementAblation(t *testing.T) {
	dep := testDeploy(t)
	a := PlacementAblation(dep, 2, 1)
	rows := a.Run()
	if len(rows) != len(place.Names()) {
		t.Fatalf("%d rows for %d policies", len(rows), len(place.Names()))
	}
	byPol := make(map[string]Row, len(rows))
	for _, r := range rows {
		byPol[r.Labels[2]] = r
		if r.Labels[1] != "2" || r.Labels[0] != "Scenario6" {
			t.Errorf("row ran the wrong experiment: %+v", r)
		}
		if r.UtilMean <= 0 || r.UtilMin > r.UtilMean || r.UtilMean > r.UtilMax || r.UtilMax > 1.0001 {
			t.Errorf("%s: implausible utilization spread %.3f/%.3f/%.3f",
				r.Labels[2], r.UtilMin, r.UtilMean, r.UtilMax)
		}
	}
	ll, rr := byPol[place.LeastLoaded], byPol[place.RoundRobin]
	if ll.Viol4 > rr.Viol4 {
		t.Errorf("least-loaded viol@4 %.3f worse than round-robin %.3f on the heavy scenario",
			ll.Viol4, rr.Viol4)
	}

	var csv strings.Builder
	if err := a.WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rows))
	}
	if !strings.HasPrefix(lines[0], "scenario,devices,placement,") {
		t.Errorf("CSV header %q", lines[0])
	}

	rendered := a.Render(rows)
	for _, pol := range place.Names() {
		if !strings.Contains(rendered, pol) {
			t.Errorf("rendered table misses %s:\n%s", pol, rendered)
		}
	}
}
