package zoo

import (
	"testing"

	"split/internal/fixture"
	"split/internal/model"
)

// graphDigest folds every field of every op and every edge of g, in order,
// into one FNV-1a value.
func graphDigest(g *model.Graph) uint64 {
	d := fixture.NewDigest()
	d.Str(g.Name)
	d.Str(g.Domain)
	d.U64(uint64(g.Class))
	d.U64(uint64(len(g.Ops)))
	for _, op := range g.Ops {
		d.Str(op.Name)
		d.Str(string(op.Kind))
		d.F64(op.TimeMs)
		d.U64(uint64(op.OutBytes))
		d.U64(uint64(op.FLOPs))
	}
	d.U64(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		d.U64(uint64(e.From))
		d.U64(uint64(e.To))
	}
	return d.Sum()
}

// TestZooGraphDigests pins every zoo graph bit for bit: op names, kinds,
// time bits, output volumes, FLOPs and the edge list in order. Every split
// plan, boundary cost and QoS figure downstream reads these graphs, so a
// builder change that moves one of them is not a refactor.
func TestZooGraphDigests(t *testing.T) {
	want := map[string]uint64{
		"alexnet":      0x13ad835f6d8970bb,
		"densenet":     0x006c3dffa2a6a718,
		"efficientnet": 0xe09b90c5fd0ea096,
		"googlenet":    0x7acf503c896bc2d1,
		"gpt2":         0xb354d7b2e82b2460,
		"resnet50":     0xa491cecffe1601bc,
		"shufflenet":   0xf04ecde1e560c891,
		"squeezenet":   0x4d0d30583becdd7d,
		"vgg19":        0xb919feb9e68854ec,
		"yolov2":       0x11e744b8fc19bb96,
	}
	if len(want) != len(Names()) {
		t.Fatalf("digest table covers %d models, the zoo has %d", len(want), len(Names()))
	}
	for _, name := range Names() {
		if got := graphDigest(MustLoad(name)); got != want[name] {
			t.Errorf("%s: graph digest %#016x, want %#016x", name, got, want[name])
		}
	}
}
