package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/policy"
	"split/internal/workload"
)

// TestRecordReplayParity is the record/replay acceptance test: a live run
// recorded through Config.ArrivalRecorder re-simulates through policy.Split
// with the same outcomes. The schedule mirrors TestSimServeParity's worked
// timeline ("work" = 3 x 20 ms blocks, FIFO), extended with a cancellation,
// so every decision has >= 9 virtual ms of margin against wall-clock
// jitter:
//
//	r0 (no deadline)    runs 0-60, served
//	r1 (deadline ~70)   granted at 60, shed at its first boundary ~80
//	r2 (deadline 1000)  served
//	r3 (canceled ~40)   canceled while queued
func TestRecordReplayParity(t *testing.T) {
	rec := workload.NewRecorder()
	srv, _, _ := startLifecycle(t, func(c *Config) { c.ArrivalRecorder = rec })

	deadlines := []float64{0, 70, 1000, 0}
	ids := make([]int, len(deadlines))
	chans := make([]chan outcome, len(deadlines))
	for i, d := range deadlines {
		id, ch, err := srv.enqueue("work", d)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], chans[i] = id, ch
	}
	// r3 would not start until 180 virtual ms; cancel it while it is
	// safely queued.
	time.Sleep(40 * time.Millisecond)
	if st := srv.Cancel(ids[3]); st != CancelQueued {
		t.Fatalf("cancel state %v, want queued", st)
	}

	serveOutcome := make(map[int]string, len(chans))
	for i, ch := range chans {
		out := await(t, ch)
		switch {
		case out.err == nil:
			serveOutcome[ids[i]] = policy.OutcomeServed
		case errors.Is(out.err, ErrDeadlineExceeded):
			serveOutcome[ids[i]] = policy.OutcomeDeadline
		case errors.Is(out.err, ErrCanceled):
			serveOutcome[ids[i]] = policy.OutcomeCanceled
		default:
			t.Fatalf("request %d: unexpected error %v", i, out.err)
		}
	}
	want := map[int]string{
		ids[0]: policy.OutcomeServed,
		ids[1]: policy.OutcomeDeadline,
		ids[2]: policy.OutcomeServed,
		ids[3]: policy.OutcomeCanceled,
	}
	if !reflect.DeepEqual(serveOutcome, want) {
		t.Fatalf("serve outcomes %v, want %v", serveOutcome, want)
	}

	// The recorder must have captured every admitted arrival with its
	// client-supplied deadline and the cancellation.
	arrivals := rec.Trace()
	if len(arrivals) != len(deadlines) {
		t.Fatalf("recorded %d arrivals, want %d", len(arrivals), len(deadlines))
	}
	for i, a := range arrivals {
		if a.Model != "work" {
			t.Fatalf("arrival %d model %q", i, a.Model)
		}
		if a.DeadlineMs != deadlines[a.ID] {
			t.Fatalf("arrival %d deadline %v, want %v", a.ID, a.DeadlineMs, deadlines[a.ID])
		}
	}
	if c := arrivals[len(arrivals)-1].CancelAtMs; c <= 0 {
		t.Fatalf("cancellation not recorded (CancelAtMs %v)", c)
	}

	// The recorded trace survives the versioned format...
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h, replayed, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Source != "serve" || !reflect.DeepEqual(replayed, arrivals) {
		t.Fatalf("trace round trip mangled (source %q)", h.Source)
	}

	// ...and re-simulating it reproduces the live run's outcomes.
	sys := &policy.Split{Knobs: engine.Knobs{Alpha: 4}}
	for _, r := range sys.Run(replayed, lifecycleCatalog(), nil) {
		if r.Outcome != serveOutcome[r.ID] {
			t.Errorf("replay outcome[%d] = %q, live run saw %q", r.ID, r.Outcome, serveOutcome[r.ID])
		}
	}
}
