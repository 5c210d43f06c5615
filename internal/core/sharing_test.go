package core

import (
	"strings"
	"testing"
)

// TestSharingAblation is the tentpole acceptance bar: on the same-type
// burst workload, spatial or hybrid sharing at M>=2 must beat the pure
// temporal baseline on throughput at equal-or-lower viol@4.
func TestSharingAblation(t *testing.T) {
	dep := testDeploy(t)
	a := SharingAblation(dep, []int{1, 2}, 1)
	rows := a.Run()
	if len(rows) != 3 {
		t.Fatalf("got %d rows for partitions [1,2], want 3 (temporal + spatial + hybrid): %+v", len(rows), rows)
	}
	byMode := map[string]Row{}
	for _, r := range rows {
		if r.Served != r.Requests {
			t.Errorf("%s/M=%s served %d of %d requests", r.Labels[0], r.Labels[1], r.Served, r.Requests)
		}
		if r.ThroughputRps <= 0 {
			t.Errorf("%s/M=%s has no throughput", r.Labels[0], r.Labels[1])
		}
		byMode[r.Labels[0]] = r
	}
	temporal := byMode["temporal"]
	better := false
	for _, mode := range []string{"spatial", "hybrid"} {
		r := byMode[mode]
		if r.ThroughputRps > temporal.ThroughputRps && r.Viol4 <= temporal.Viol4 {
			better = true
		}
	}
	if !better {
		t.Errorf("no shared arm beats temporal (%.2f rps, viol %.1f%%): spatial %.2f rps/%.1f%%, hybrid %.2f rps/%.1f%%",
			temporal.ThroughputRps, temporal.Viol4*100,
			byMode["spatial"].ThroughputRps, byMode["spatial"].Viol4*100,
			byMode["hybrid"].ThroughputRps, byMode["hybrid"].Viol4*100)
	}

	out := a.Render(rows)
	for _, want := range []string{"temporal", "spatial", "hybrid", "viol@4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
