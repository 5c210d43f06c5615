package serve

import (
	"net"
	"reflect"
	"testing"

	"split/internal/place"
	"split/internal/trace"
)

// TestOptionsAssembleConfig: every functional option must land on the
// corresponding config field.
func TestOptionsAssembleConfig(t *testing.T) {
	ring := trace.NewRing(16)
	srv, err := New(lifecycleCatalog(),
		WithTimeScale(0.5),
		WithSink(ring),
		WithDevices(3),
		WithPlacement(place.Affinity),
		nil, // nil options are tolerated
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := srv.cfg
	if cfg.TimeScale != 0.5 {
		t.Errorf("scalar options lost: %+v", cfg)
	}
	if cfg.Sink != trace.Sink(ring) {
		t.Error("struct options lost")
	}
	if cfg.Devices != 3 || cfg.Placement != place.Affinity || srv.eng.Lanes() != 3 {
		t.Errorf("fleet options lost: devices=%d placement=%q", cfg.Devices, cfg.Placement)
	}
	if srv.eng.PlacerName() != place.Affinity {
		t.Errorf("placer is %q", srv.eng.PlacerName())
	}
}

// TestOptionsDefaultsMatchLegacyConfig: NewServer(Config) and the option
// constructor must normalize to the same effective config.
func TestOptionsDefaultsMatchLegacyConfig(t *testing.T) {
	viaShim, err := NewServer(Config{Catalog: lifecycleCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := New(lifecycleCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaShim.cfg, viaOpts.cfg) {
		t.Errorf("shim config %+v != options config %+v", viaShim.cfg, viaOpts.cfg)
	}
	if viaShim.eng.Lanes() != 1 || viaOpts.eng.Lanes() != 1 {
		t.Error("defaults are not single-device")
	}
}

// TestOptionsValidation: unknown placements and empty catalogs fail fast.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(lifecycleCatalog(), WithPlacement("nope")); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("empty catalog accepted")
	}
}

// TestOptionsServerServes: an option-built fleet server actually serves.
func TestOptionsServerServes(t *testing.T) {
	srv, err := New(lifecycleCatalog(), WithDevices(2), WithPlacement(place.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Infer("quick")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "quick" {
		t.Errorf("reply %+v", reply)
	}
}
