package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"split/internal/modelid"
)

func TestRingWrapsAndKeepsNewest(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{ReqID: i, Kind: Arrive})
	}
	if r.Len() != 3 || r.Cap() != 3 || r.Total() != 5 {
		t.Fatalf("len=%d cap=%d total=%d", r.Len(), r.Cap(), r.Total())
	}
	snap := r.Snapshot()
	for i, want := range []int{2, 3, 4} {
		if snap[i].ReqID != want {
			t.Errorf("snap[%d].ReqID = %d, want %d", i, snap[i].ReqID, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(10)
	r.Emit(Event{ReqID: 7})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].ReqID != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", r.Cap())
	}
	r.Emit(Event{ReqID: 1})
	r.Emit(Event{ReqID: 2})
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].ReqID != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestNilRingIsNoOp(t *testing.T) {
	var r *Ring
	r.Emit(Event{ReqID: 1}) // must not panic
	if r.Len() != 0 || r.Cap() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Error("nil ring not inert")
	}
}

func TestRingWriteJSONL(t *testing.T) {
	r := NewRing(4)
	r.Emit(Event{AtMs: 1, Kind: Arrive, ReqID: 0, Model: modelid.Intern("vgg19")})
	r.Emit(Event{AtMs: 2, Kind: Complete, ReqID: 0, Model: modelid.Intern("vgg19")})
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.Contains(lines[0], `"arrive"`) || !strings.Contains(lines[1], `"complete"`) {
		t.Errorf("jsonl = %q", b.String())
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{ReqID: g*100 + i})
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 800 || r.Len() != 64 {
		t.Fatalf("total=%d len=%d", r.Total(), r.Len())
	}
}

// TestRingConcurrentEmitAndDump hammers the ring from dedicated emitter
// and dumper goroutines — Snapshot, WriteJSONL, Len, Total and Cap racing
// against Emit — and checks every dump is internally consistent: bounded
// by capacity, holding only events some emitter actually produced, and
// (per emitter) in emission order. Run under -race, this is the
// flight-recorder concurrency contract.
func TestRingConcurrentEmitAndDump(t *testing.T) {
	const (
		emitters = 4
		perEmit  = 500
		capacity = 64
	)
	r := NewRing(capacity)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				// ReqID encodes (emitter, seq) so dumpers can check
				// per-emitter ordering inside any snapshot.
				r.Emit(Event{Kind: StartBlock, ReqID: g*perEmit + i, Model: modelid.Intern("m")})
			}
		}(g)
	}
	stop := make(chan struct{})
	var dumpers sync.WaitGroup
	for d := 0; d < 3; d++ {
		dumpers.Add(1)
		go func() {
			defer dumpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if len(snap) > capacity {
					t.Errorf("snapshot longer than capacity: %d", len(snap))
					return
				}
				last := make(map[int]int) // emitter -> last seq seen
				for _, e := range snap {
					if e.ReqID < 0 || e.ReqID >= emitters*perEmit {
						t.Errorf("snapshot holds event never emitted: %+v", e)
						return
					}
					em, seq := e.ReqID/perEmit, e.ReqID%perEmit
					if prev, ok := last[em]; ok && seq <= prev {
						t.Errorf("emitter %d out of order: %d after %d", em, seq, prev)
						return
					}
					last[em] = seq
				}
				var b strings.Builder
				if err := r.WriteJSONL(&b); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
				if n := r.Len(); n < 0 || n > r.Cap() {
					t.Errorf("len %d outside [0, %d]", n, r.Cap())
					return
				}
				_ = r.Total()
			}
		}()
	}
	wg.Wait()
	close(stop)
	dumpers.Wait()
	if r.Total() != emitters*perEmit {
		t.Fatalf("total = %d, want %d", r.Total(), emitters*perEmit)
	}
	if r.Len() != capacity {
		t.Fatalf("len = %d, want full ring %d", r.Len(), capacity)
	}
}

// TestModelTableConcurrent: emitters intern model names no one has seen
// while dumpers render ring snapshots to JSON lines, so a name is added to
// the table while other goroutines read it. Every rendered line must name
// the model its emitter interned for that request. Run under -race, this
// is the table's lock-free read contract.
func TestModelTableConcurrent(t *testing.T) {
	const (
		emitters = 4
		perEmit  = 300
		names    = 40
	)
	name := func(req int) string {
		return fmt.Sprintf("concurrent-%d-%d", req/perEmit, req%names)
	}
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				req := g*perEmit + i
				r.Emit(Event{Kind: Arrive, ReqID: req, Model: modelid.Intern(name(req))})
			}
		}(g)
	}
	stop := make(chan struct{})
	var dumpers sync.WaitGroup
	for d := 0; d < 2; d++ {
		dumpers.Add(1)
		go func() {
			defer dumpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b bytes.Buffer
				if err := r.WriteJSONL(&b); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
				dec := json.NewDecoder(&b)
				for dec.More() {
					var line struct {
						Req   int    `json:"req"`
						Model string `json:"model"`
					}
					if err := dec.Decode(&line); err != nil {
						t.Errorf("decode: %v", err)
						return
					}
					if want := name(line.Req); line.Model != want {
						t.Errorf("req %d rendered model %q, want %q", line.Req, line.Model, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	dumpers.Wait()
	for req := 0; req < emitters*perEmit; req++ {
		if id, ok := modelid.Lookup(name(req)); !ok || id.String() != name(req) {
			t.Fatalf("%s: id %d (known %v) renders %q", name(req), id, ok, id)
		}
	}
}

func TestFanout(t *testing.T) {
	a, b := New(), NewRing(8)
	s := Fanout(nil, a, nil, b)
	s.Emit(Event{ReqID: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fanout missed a sink: tracer=%d ring=%d", a.Len(), b.Len())
	}
	if Fanout(nil, nil) != nil {
		t.Error("all-nil fanout should collapse to nil")
	}
	if one := Fanout(a); one != Sink(a) {
		t.Error("single-sink fanout should return the sink itself")
	}
}
