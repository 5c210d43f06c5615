package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/place"
	"split/internal/trace"
)

// teller scripts an engine the way a driver would — every decision is
// narrated as returned, a released lane is granted again after the siblings
// it woke — and keeps the stream. There is no clock in it: now is whatever
// the script says.
type teller struct {
	e    *Engine
	held map[int]Grant
	evs  []trace.Event
}

func (s *teller) arrive(now float64, j *Job) {
	a := s.e.Arrive(now, j)
	s.evs = AppendArrival(s.evs, now, j, a)
	if a.Idle {
		s.grant(a.Lane, now)
	}
}

func (s *teller) grant(lane int, now float64) {
	g := s.e.Grant(lane, now)
	s.evs = AppendGrant(s.evs, now, g)
	if g.OK {
		s.held[lane] = *g
	}
}

// settle is the lane's boundary. stop, when non-empty, is a driver shutting
// down: nothing is granted after it.
func (s *teller) settle(lane int, now float64, stop string) {
	st := s.e.Settle(lane, now, stop)
	g := s.held[lane]
	s.evs = AppendSettle(s.evs, now, &g, st)
	if st.Retry || stop != "" {
		return
	}
	for _, sib := range st.Wake {
		s.grant(sib, now)
	}
	s.grant(lane, now)
}

func (s *teller) cancel(now float64, id int, why string) {
	s.evs = AppendCancel(s.evs, now, s.e.Cancel(now, id), why)
}

// lines renders events one per line: time, kind, request, model, then the
// non-zero placement fields, then the detail.
func lines(evs []trace.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		var b strings.Builder
		fmt.Fprintf(&b, "%g %s #%d", e.AtMs, e.Kind, e.ReqID)
		if e.Model != 0 {
			fmt.Fprintf(&b, " %s", e.Model)
		}
		fmt.Fprintf(&b, " blk=%d", e.Block)
		if e.Device != 0 {
			fmt.Fprintf(&b, " dev=%d", e.Device)
		}
		if e.Part != 0 {
			fmt.Fprintf(&b, " part=%d", e.Part)
		}
		if e.Batch != 0 {
			fmt.Fprintf(&b, " batch=%d", e.Batch)
		}
		if d := e.Detail(); d != "" {
			fmt.Fprintf(&b, " | %s", d)
		}
		out[i] = b.String()
	}
	return out
}

// narrations are clock-free scripts of every decision the engine narrates,
// each with the exact event lines it must produce.
var narrations = []struct {
	name   string
	knobs  Knobs
	script func(s *teller)
	want   []string
}{
	{
		name:  "requeue with preempt, completion, shutdown",
		knobs: Knobs{Alpha: 4},
		script: func(s *teller) {
			s.arrive(0, job(0, "long"))
			s.arrive(1, job(1, "short"))
			s.settle(0, 10, "") // the long is passed by the short
			s.settle(0, 15, "") // the short completes
			s.settle(0, 25, "drained")
		},
		want: []string{
			"0 arrive #0 long blk=0 | pos=0 blocks=3 scanned=0 qlen=0",
			"0 start_block #0 long blk=0 | dur=10.000",
			"1 arrive #1 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"10 end_block #0 long blk=0",
			"10 preempt #0 long blk=1 | requeued at 1",
			"10 start_block #1 short blk=0 | dur=5.000",
			"15 end_block #1 short blk=0",
			"15 complete #1 short blk=0 | rr=2.80",
			"15 start_block #0 long blk=1 | dur=10.000",
			"25 end_block #0 long blk=1",
			"25 shed #0 long blk=2 | drained",
		},
	},
	{
		name:  "cancel queued and in flight",
		knobs: Knobs{Alpha: 4},
		script: func(s *teller) {
			s.arrive(0, job(0, "long"))
			s.arrive(1, job(1, "short"))
			s.cancel(2, 1, "client cancel")
			s.cancel(3, 0, "")
			s.cancel(4, 0, "connection lost") // already marked: silent
			s.cancel(5, 9, "client cancel")   // unknown: silent
			s.settle(0, 10, "")
		},
		want: []string{
			"0 arrive #0 long blk=0 | pos=0 blocks=3 scanned=0 qlen=0",
			"0 start_block #0 long blk=0 | dur=10.000",
			"1 arrive #1 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"2 cancel #1 short blk=0 | queued: client cancel",
			"2 shed #1 short blk=0 | canceled",
			"3 cancel #0 long blk=1 | inflight",
			"10 end_block #0 long blk=0",
			"10 shed #0 long blk=1 | canceled",
		},
	},
	{
		name:  "deadline sweep and boundary expiry",
		knobs: Knobs{Alpha: 4},
		script: func(s *teller) {
			late := job(0, "long")
			late.DeadlineMs = 15
			s.arrive(0, late)
			doomed := job(1, "short")
			doomed.DeadlineMs = 2
			s.arrive(1, doomed)
			s.settle(0, 10, "") // sweep sheds the short queued; the long runs on
			s.settle(0, 20, "") // the long expired mid-block
		},
		want: []string{
			"0 arrive #0 long blk=0 | pos=0 blocks=3 scanned=0 qlen=0",
			"0 start_block #0 long blk=0 | dur=10.000",
			"1 arrive #1 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"10 end_block #0 long blk=0",
			"10 preempt #0 long blk=1 | requeued at 1",
			"10 shed #1 short blk=0 | deadline",
			"10 start_block #0 long blk=1 | dur=10.000",
			"20 end_block #0 long blk=1",
			"20 shed #0 long blk=2 | deadline",
		},
	},
	{
		name:  "batch",
		knobs: Knobs{Alpha: 4, BatchMax: 4},
		script: func(s *teller) {
			s.arrive(0, job(0, "huge"))
			s.arrive(1, job(1, "short"))
			s.arrive(2, job(2, "short"))
			s.settle(0, 96, "")
			s.settle(0, 110, "")
		},
		want: []string{
			"0 arrive #0 huge blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"0 start_block #0 huge blk=0 | dur=96.000",
			"1 arrive #1 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"2 arrive #2 short blk=0 | pos=1 blocks=1 scanned=1 qlen=1",
			"96 end_block #0 huge blk=0",
			"96 complete #0 huge blk=0 | rr=1.00",
			"96 start_block #1 short blk=0 batch=1 | dur=6.875 n=2",
			"96 start_block #2 short blk=0 batch=1 | dur=6.875 n=2",
			"110 end_block #1 short blk=0 batch=1",
			"110 end_block #2 short blk=0 batch=1",
			"110 complete #1 short blk=0 | rr=21.80",
			"110 complete #2 short blk=0 | rr=21.60",
		},
	},
	{
		name:  "partitioned fleet",
		knobs: Knobs{Alpha: 4, Devices: 2, Placement: place.RoundRobin, Partitions: 2, PartitionWidth: place.WidthAdaptive},
		script: func(s *teller) {
			s.arrive(0, job(0, "short")) // device 0 slot 0, full width
			s.arrive(1, job(1, "short")) // device 0 slot 1: covered, waits
			s.arrive(2, job(2, "short")) // device 1
			s.settle(0, 5, "")           // wakes lane 1
		},
		want: []string{
			"0 place #0 short blk=0 | policy=round-robin+adaptive depth=0",
			"0 arrive #0 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"0 start_block #0 short blk=0 | dur=5.000 frac=1.00",
			"1 place #1 short blk=0 part=1 | policy=round-robin+adaptive depth=0",
			"1 arrive #1 short blk=0 part=1 | pos=0 blocks=1 scanned=0 qlen=0",
			"2 place #2 short blk=0 dev=1 | policy=round-robin+adaptive depth=0",
			"2 arrive #2 short blk=0 dev=1 | pos=0 blocks=1 scanned=0 qlen=0",
			"2 start_block #2 short blk=0 dev=1 | dur=5.000 frac=1.00",
			"5 end_block #0 short blk=0",
			"5 complete #0 short blk=0 | rr=1.00",
			"5 start_block #1 short blk=0 part=1 | dur=7.071 frac=0.50",
		},
	},
	{
		name:  "spike, transient retry, terminal fault",
		knobs: Knobs{Alpha: 4, Faults: &gpusim.FaultInjector{Seed: 1, SpikeProb: 1, SpikeFactor: 3, FailProb: 1, MaxRetries: 1}},
		script: func(s *teller) {
			s.arrive(0, job(0, "short"))
			s.settle(0, 15, "")
			s.settle(0, 30, "")
		},
		want: []string{
			"0 arrive #0 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"0 start_block #0 short blk=0 | dur=5.000",
			"0 fault #0 short blk=0 | spike x3.00 attempt=0",
			"15 fault #0 short blk=0 | transient attempt=0, retrying",
			"15 fault #0 short blk=0 | spike x3.00 attempt=1",
			"30 fault #0 short blk=0 | terminal after 2 attempts",
			"30 end_block #0 short blk=0",
			"30 shed #0 short blk=1 | device_fault",
		},
	},
	{
		name: "admission reject, scale-out, scale-in",
		knobs: Knobs{
			Alpha:     4,
			Placement: place.LeastLoaded,
			Admission: fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 1},
			Fleet: fleet.AutoscaleConfig{Min: 1, Max: 2, EvalEveryMs: 1, HighDepthPerDevice: 1,
				HighViolRate: 1000, ScaleOutCooldownMs: 1, ScaleInCooldownMs: 10, IdleReleaseMs: 10},
		},
		script: func(s *teller) {
			s.arrive(0, job(0, "huge"))
			s.arrive(10, job(1, "short"))
			s.arrive(20, job(2, "short")) // over the cap: rejected, and the fleet grows
			s.cancel(21, 1, "")
			for now := 40.0; s.e.Active() == 2 && now < 90; now += 5 {
				s.arrive(now, job(int(now), "short"))
				s.cancel(now, int(now), "")
			}
		},
		want: []string{
			"0 place #0 huge blk=0 | policy=least-loaded depth=0",
			"0 arrive #0 huge blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"0 start_block #0 huge blk=0 | dur=96.000",
			"10 place #1 short blk=0 | policy=least-loaded depth=0",
			"10 arrive #1 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"20 drop #2 short blk=0 | admission: queue_length",
			"20 scale_out #-1 blk=0 dev=1 | active=2 depth=1",
			"21 cancel #1 short blk=0 | queued",
			"21 shed #1 short blk=0 | canceled",
			"40 place #40 short blk=0 | policy=least-loaded depth=0",
			"40 arrive #40 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"40 cancel #40 short blk=0 | queued",
			"40 shed #40 short blk=0 | canceled",
			"45 place #45 short blk=0 | policy=least-loaded depth=0",
			"45 arrive #45 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"45 cancel #45 short blk=0 | queued",
			"45 shed #45 short blk=0 | canceled",
			"50 scale_in #-1 blk=0 dev=1 | active=1 drain=0",
			"50 place #50 short blk=0 | policy=least-loaded depth=0",
			"50 arrive #50 short blk=0 | pos=0 blocks=1 scanned=0 qlen=0",
			"50 cancel #50 short blk=0 | queued",
			"50 shed #50 short blk=0 | canceled",
		},
	},
}

// TestNarration pins the one dialect both drivers speak: scripted decisions
// in, exact event lines out.
func TestNarration(t *testing.T) {
	for _, c := range narrations {
		t.Run(c.name, func(t *testing.T) {
			s := &teller{e: mustNew(t, c.knobs), held: map[int]Grant{}}
			c.script(s)
			if got := lines(s.evs); !slices.Equal(got, c.want) {
				t.Errorf("narration:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}

// TestNarrationRingJSONL pins the /tracez bytes of every narration script:
// the events pass through a flight recorder and leave as its JSON lines.
// The values were generated while events still carried their details as
// strings; rendering them from numbers must not move a byte.
func TestNarrationRingJSONL(t *testing.T) {
	want := map[string]uint64{
		"requeue with preempt, completion, shutdown": 0x27c28f8a701c8a27,
		"cancel queued and in flight":                0x38460bfa18c68a10,
		"deadline sweep and boundary expiry":         0xa867d1d8570fa4e6,
		"batch":                                      0x73102f67df6c574d,
		"partitioned fleet":                          0x7b79b4dc64ce4a02,
		"spike, transient retry, terminal fault":     0x6f8da600215db787,
		"admission reject, scale-out, scale-in":      0x364a9bc94b007169,
	}
	for _, c := range narrations {
		t.Run(c.name, func(t *testing.T) {
			s := &teller{e: mustNew(t, c.knobs), held: map[int]Grant{}}
			c.script(s)
			ring := trace.NewRing(64)
			for _, e := range s.evs {
				ring.Emit(e)
			}
			var b bytes.Buffer
			if err := ring.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(b.Bytes())
			if got := h.Sum64(); got != want[c.name] {
				t.Errorf("ring JSONL digest %#016x, want %#016x:\n%s", got, want[c.name], b.String())
			}
		})
	}
}
