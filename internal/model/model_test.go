package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRequestClassText: a class spells its Table 1 name in text and JSON
// and reads back from it; the zero class is the empty name, and no other
// name or value passes.
func TestRequestClassText(t *testing.T) {
	for c, name := range map[RequestClass]string{0: "", Short: "Short", Long: "Long"} {
		if c.String() != name {
			t.Errorf("RequestClass(%d).String() = %q, want %q", uint8(c), c.String(), name)
		}
		if got, err := ParseClass(name); err != nil || got != c {
			t.Errorf("ParseClass(%q) = %d, %v, want %d", name, uint8(got), err, uint8(c))
		}
		text, err := c.MarshalText()
		if err != nil || string(text) != name {
			t.Errorf("RequestClass(%d).MarshalText() = %q, %v", uint8(c), text, err)
		}
		var back RequestClass
		if err := back.UnmarshalText(text); err != nil || back != c {
			t.Errorf("UnmarshalText(%q) = %d, %v, want %d", text, uint8(back), err, uint8(c))
		}
		type doc struct {
			C RequestClass `json:"class"`
		}
		js, err := json.Marshal(doc{c})
		if want := `{"class":"` + name + `"}`; err != nil || string(js) != want {
			t.Errorf("json.Marshal = %s, %v, want %s", js, err, want)
		}
		var d doc
		if err := json.Unmarshal(js, &d); err != nil || d.C != c {
			t.Errorf("json.Unmarshal(%s) = %d, %v", js, uint8(d.C), err)
		}
	}
	for _, bad := range []string{"Medium", "short", "LONG", " Short"} {
		if _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted", bad)
		}
		var c RequestClass
		if err := c.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
	if _, err := RequestClass(3).MarshalText(); err == nil {
		t.Error("MarshalText of RequestClass(3) succeeded")
	}
	if got := RequestClass(3).String(); got != "RequestClass(3)" {
		t.Errorf("RequestClass(3).String() = %q", got)
	}
}

// testGraph builds a deterministic graph with n ops whose times and volumes
// decay along the graph, like a CNN.
func testGraph(n int) *Graph {
	g := &Graph{Name: "test", Domain: "Test", Class: Short}
	for i := 0; i < n; i++ {
		g.Ops = append(g.Ops, Op{
			Name:     "op" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Kind:     Conv,
			TimeMs:   1 + float64(n-i)*0.1,
			OutBytes: int64((n - i) * 1000),
		})
	}
	return g
}

func TestValidateOK(t *testing.T) {
	if err := testGraph(10).Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Graph)
	}{
		{"empty name", func(g *Graph) { g.Name = "" }},
		{"no ops", func(g *Graph) { g.Ops = nil }},
		{"empty op name", func(g *Graph) { g.Ops[0].Name = "" }},
		{"duplicate op name", func(g *Graph) { g.Ops[1].Name = g.Ops[0].Name }},
		{"zero time", func(g *Graph) { g.Ops[2].TimeMs = 0 }},
		{"negative time", func(g *Graph) { g.Ops[2].TimeMs = -1 }},
		{"NaN time", func(g *Graph) { g.Ops[2].TimeMs = math.NaN() }},
		{"Inf time", func(g *Graph) { g.Ops[2].TimeMs = math.Inf(1) }},
		{"negative volume", func(g *Graph) { g.Ops[3].OutBytes = -5 }},
	}
	for _, c := range cases {
		g := testGraph(6)
		c.mod(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestTotalTimeAndPrefix(t *testing.T) {
	g := &Graph{Name: "g", Ops: []Op{
		{Name: "a", TimeMs: 1},
		{Name: "b", TimeMs: 2},
		{Name: "c", TimeMs: 3},
	}}
	if got := g.TotalTimeMs(); got != 6 {
		t.Errorf("total = %v", got)
	}
	p := g.PrefixTimes()
	want := []float64{1, 3, 6}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("prefix[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestScaleTo(t *testing.T) {
	g := testGraph(20)
	g.ScaleTo(100)
	if got := g.TotalTimeMs(); math.Abs(got-100) > 1e-9 {
		t.Errorf("scaled total = %v", got)
	}
	// Relative times must be preserved.
	if g.Ops[0].TimeMs <= g.Ops[19].TimeMs {
		t.Error("scaling destroyed relative op times")
	}
}

func TestValidateCuts(t *testing.T) {
	g := testGraph(10)
	valid := [][]int{{1}, {5}, {9}, {1, 2}, {3, 7, 9}, {}}
	for _, cuts := range valid {
		if err := g.ValidateCuts(cuts); err != nil {
			t.Errorf("cuts %v rejected: %v", cuts, err)
		}
	}
	invalid := [][]int{{0}, {10}, {-1}, {3, 3}, {5, 2}}
	for _, cuts := range invalid {
		if err := g.ValidateCuts(cuts); err == nil {
			t.Errorf("cuts %v accepted", cuts)
		}
	}
}

func TestBlocks(t *testing.T) {
	g := testGraph(10)
	blocks := g.Blocks([]int{3, 7})
	want := []Block{{0, 3}, {3, 7}, {7, 10}}
	if len(blocks) != len(want) {
		t.Fatalf("got %d blocks", len(blocks))
	}
	total := 0
	for i, b := range blocks {
		if b != want[i] {
			t.Errorf("block %d = %+v, want %+v", i, b, want[i])
		}
		total += b.Len()
	}
	if total != g.NumOps() {
		t.Errorf("blocks cover %d ops of %d", total, g.NumOps())
	}
}

func TestBlocksNoCuts(t *testing.T) {
	g := testGraph(5)
	blocks := g.Blocks(nil)
	if len(blocks) != 1 || blocks[0].Len() != 5 {
		t.Errorf("unsplit blocks = %+v", blocks)
	}
}

func TestBlockTimesAttributeBoundaryToSuccessor(t *testing.T) {
	g := &Graph{Name: "g", Ops: []Op{
		{Name: "a", TimeMs: 10, OutBytes: 2_000_000},
		{Name: "b", TimeMs: 10, OutBytes: 0},
	}}
	cm := CostModel{FixedLaunchMs: 1, BytesPerMs: 1e6}
	times := g.BlockTimesMs([]int{1}, cm)
	if math.Abs(times[0]-10) > 1e-9 {
		t.Errorf("first block pays boundary: %v", times[0])
	}
	// Second block: 10 + (1 + 2e6/1e6) = 13.
	if math.Abs(times[1]-13) > 1e-9 {
		t.Errorf("second block = %v, want 13", times[1])
	}
}

func TestSplitOverhead(t *testing.T) {
	g := &Graph{Name: "g", Ops: []Op{
		{Name: "a", TimeMs: 10, OutBytes: 1_000_000},
		{Name: "b", TimeMs: 20, OutBytes: 500_000},
		{Name: "c", TimeMs: 10, OutBytes: 0},
	}}
	cm := CostModel{FixedLaunchMs: 2, BytesPerMs: 1e6}
	// Cut after op a: boundary = 2 + 1 = 3; overhead = 3/40.
	if got := g.SplitOverhead([]int{1}, cm); math.Abs(got-3.0/40) > 1e-12 {
		t.Errorf("overhead = %v", got)
	}
	// Two cuts: 3 + 2.5 = 5.5 over 40.
	if got := g.SplitOverhead([]int{1, 2}, cm); math.Abs(got-5.5/40) > 1e-12 {
		t.Errorf("overhead = %v", got)
	}
	if got := g.SplitOverhead(nil, cm); got != 0 {
		t.Errorf("unsplit overhead = %v", got)
	}
}

// Property: sum of block times equals total + sum of boundary costs, for
// random cut sets.
func TestBlockTimesConservationProperty(t *testing.T) {
	g := testGraph(40)
	cm := DefaultCostModel()
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		cuts := map[int]bool{}
		for len(cuts) < k {
			cuts[1+r.Intn(39)] = true
		}
		var cs []int
		for c := range cuts {
			cs = append(cs, c)
		}
		// insertion sort
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j] < cs[j-1]; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
		times := g.BlockTimesMs(cs, cm)
		var sum float64
		for _, x := range times {
			sum += x
		}
		want := g.TotalTimeMs() * (1 + g.SplitOverhead(cs, cm))
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestNewSplitPlan(t *testing.T) {
	g := testGraph(20)
	cm := DefaultCostModel()
	p, err := NewSplitPlan(g, []int{10, 5}, cm) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if p.Cuts[0] != 5 || p.Cuts[1] != 10 {
		t.Errorf("cuts not sorted: %v", p.Cuts)
	}
	if p.NumBlocks() != 3 || len(p.BlockTimesMs) != 3 {
		t.Errorf("blocks = %d", p.NumBlocks())
	}
	if p.StdDevMs < 0 {
		t.Errorf("std = %v", p.StdDevMs)
	}
	if math.Abs(p.TotalTimeMs()-g.TotalTimeMs()*(1+p.OverheadRatio)) > 1e-6 {
		t.Error("plan total inconsistent with overhead")
	}
	if _, err := NewSplitPlan(g, []int{0}, cm); err == nil {
		t.Error("invalid cut accepted")
	}
}

func TestUnsplitPlan(t *testing.T) {
	g := testGraph(7)
	p := UnsplitPlan(g)
	if p.NumBlocks() != 1 {
		t.Errorf("blocks = %d", p.NumBlocks())
	}
	if math.Abs(p.BlockTimesMs[0]-g.TotalTimeMs()) > 1e-12 {
		t.Errorf("block time = %v", p.BlockTimesMs[0])
	}
	if p.OverheadRatio != 0 || p.StdDevMs != 0 {
		t.Errorf("unsplit plan has overhead/std: %+v", p)
	}
}

func TestCostModelBoundary(t *testing.T) {
	cm := CostModel{FixedLaunchMs: 3, BytesPerMs: 1e6}
	if got := cm.BoundaryMs(0); got != 3 {
		t.Errorf("boundary(0) = %v", got)
	}
	if got := cm.BoundaryMs(2_000_000); got != 5 {
		t.Errorf("boundary(2MB) = %v", got)
	}
}

func TestCandidateCount(t *testing.T) {
	cases := []struct {
		ops, blocks int
		want        float64
	}{
		{10, 1, 1},
		{10, 2, 9},
		{10, 3, 36},    // C(9,2)
		{122, 3, 7260}, // C(121,2) — ResNet50 in our zoo
		{5, 6, 0},      // more blocks than ops
		{10, 0, 0},     // invalid
		{4, 4, 1},      // all singleton blocks
	}
	for _, c := range cases {
		if got := CandidateCount(c.ops, c.blocks); got != c.want {
			t.Errorf("CandidateCount(%d,%d) = %v, want %v", c.ops, c.blocks, got, c.want)
		}
	}
}

func TestCandidateCountLargeDoesNotOverflow(t *testing.T) {
	got := CandidateCount(2534, 20)
	if got <= 0 || math.IsNaN(got) {
		t.Errorf("large candidate count = %v", got)
	}
}

func TestBlocksPanicsOnInvalidCuts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Blocks(invalid) did not panic")
		}
	}()
	testGraph(5).Blocks([]int{7})
}
