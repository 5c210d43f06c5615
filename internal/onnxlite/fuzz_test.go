package onnxlite

import (
	"bytes"
	"strings"
	"testing"

	"split/internal/zoo"
)

// FuzzDecodeGraph ensures the graph decoder never panics and that every
// accepted graph validates — the invariant the server-side DeployGraph RPC
// relies on when handed untrusted uploads.
func FuzzDecodeGraph(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeGraph(&buf, zoo.MustLoad("vgg19")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1,"name":"x","class":"Short","ops":[{"name":"a","kind":"Conv","time_ms":1}]}`)
	f.Add(`{"version":1,"name":"x","class":"Medium","ops":[{"name":"a","kind":"Conv","time_ms":1}]}`)
	f.Add(`{"version":1,"name":"x","ops":[{"name":"a","kind":"Conv","time_ms":1}]}`)
	f.Add(`{"version":1,"name":"x","ops":[]}`)
	f.Add(`{"version":1,"name":"x","ops":[{"name":"a","kind":"Conv","time_ms":-1}]}`)
	f.Add(`{"version":1,"name":"x","ops":[{"name":"a","kind":"Conv","time_ms":1}],"edges":[[5,9]]}`)
	f.Add(`not json at all`)
	f.Add(`{"version":99}`)
	f.Fuzz(func(t *testing.T, data string) {
		g, err := DecodeGraph(strings.NewReader(data))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", vErr)
		}
		if _, cErr := g.Class.MarshalText(); cErr != nil {
			t.Fatalf("decoder accepted a graph of no known class: %v", cErr)
		}
	})
}

// FuzzDecodePlan ensures the plan decoder never panics and that accepted
// plans are internally consistent.
func FuzzDecodePlan(f *testing.F) {
	f.Add(`{"version":1,"model":"m","cuts":[3],"block_times_ms":[1,2]}`)
	f.Add(`{"version":1,"model":"m","cuts":[],"block_times_ms":[5]}`)
	f.Add(`{"version":1,"model":"","cuts":[],"block_times_ms":[5]}`)
	f.Add(`{"version":1,"model":"m","cuts":[1,2,3],"block_times_ms":[1]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, data string) {
		p, err := DecodePlan(strings.NewReader(data))
		if err != nil {
			return
		}
		if p.Model == "" {
			t.Fatal("decoder accepted a plan with no model")
		}
		if len(p.BlockTimesMs) != len(p.Cuts)+1 {
			t.Fatalf("decoder accepted inconsistent plan: %d blocks, %d cuts",
				len(p.BlockTimesMs), len(p.Cuts))
		}
	})
}
