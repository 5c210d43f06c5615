package trace

import (
	"math"
	"testing"

	"split/internal/modelid"
)

// FuzzSpanBuilder drives the span builder with arbitrary *valid* event
// orderings — a byte-coded mini scheduler over up to three devices with
// arrivals, grants, boundary releases, preemptions and queued sheds, all
// causally ordered — and asserts the span-tree invariants: folding reports
// no problems, every decided request's wait/exec/preempted decomposition
// sums exactly to its lifetime, block counts match the emitted grants, and
// exec time matches the device time actually granted.
func FuzzSpanBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 1, 2, 1, 2, 3}, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 2, 1, 2, 3, 3, 1, 2}, uint8(2))
	f.Add([]byte{0, 1, 3, 0, 1, 2, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, devRaw uint8) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		devices := 1 + int(devRaw)%3
		models := []modelid.ID{modelid.Intern("yolov2"), modelid.Intern("vgg19"), modelid.Intern("gpt2")}

		type req struct {
			blocks  int // total plan length
			next    int // next block index
			granted int // device currently executing it, -1 if none
			done    bool
		}
		var (
			events  []Event
			reqs    []*req
			now     float64
			open    = make([]int, devices) // req id holding each device, -1 idle
			execMs  = map[int]float64{}    // granted device time per request
			grants  = map[int]int{}        // closed grants per request
			preempt = map[int]int{}
		)
		for i := range open {
			open[i] = -1
		}

		for i, op := range ops {
			now += float64(op%5) * 0.5 // monotone clock, sometimes still
			switch op % 4 {
			case 0: // arrive
				if len(reqs) >= 32 {
					continue
				}
				id := len(reqs)
				r := &req{blocks: 1 + int(op/4)%3, granted: -1}
				reqs = append(reqs, r)
				events = append(events, Event{AtMs: now, Kind: Arrive, ReqID: id,
					Model: models[id%len(models)]})
			case 1: // grant: idle device + a waiting request
				dev := int(op/4) % devices
				if open[dev] != -1 {
					continue
				}
				// Pick the first waiting request, offset by the op byte.
				var waiting []int
				for id, r := range reqs {
					if !r.done && r.granted == -1 {
						waiting = append(waiting, id)
					}
				}
				if len(waiting) == 0 {
					continue
				}
				id := waiting[int(op/4)%len(waiting)]
				r := reqs[id]
				r.granted = dev
				open[dev] = id
				events = append(events, Event{AtMs: now, Kind: StartBlock, ReqID: id,
					Model: models[id%len(models)], Block: int16(r.next), Device: int16(dev)})
			case 2: // release at the boundary
				dev := int(op/4) % devices
				id := open[dev]
				if id == -1 {
					continue
				}
				r := reqs[id]
				start := events[lastStart(events, id)].AtMs
				execMs[id] += now - start
				grants[id]++
				events = append(events, Event{AtMs: now, Kind: EndBlock, ReqID: id,
					Model: models[id%len(models)], Block: int16(r.next), Device: int16(dev)})
				open[dev] = -1
				r.granted = -1
				r.next++
				if r.next >= r.blocks {
					r.done = true
					events = append(events, Event{AtMs: now, Kind: Complete, ReqID: id,
						Model: models[id%len(models)], Block: int16(r.next - 1)})
				} else if i%2 == 0 {
					preempt[id]++
					events = append(events, Event{AtMs: now, Kind: Preempt, ReqID: id,
						Model: models[id%len(models)], Block: int16(r.next)})
				}
			case 3: // shed a waiting request
				for id, r := range reqs {
					if !r.done && r.granted == -1 {
						r.done = true
						events = append(events, Event{AtMs: now, Kind: Shed, ReqID: id,
							Model: models[id%len(models)], Block: int16(r.next), Note: NoteWord, Args: [4]float64{float64(WordOf(ReasonDeadline))}})
						break
					}
				}
			}
		}

		tree := BuildSpans(events)
		if len(tree.Problems) != 0 {
			t.Fatalf("valid ordering produced problems: %v", tree.Problems)
		}
		for _, sp := range tree.Requests {
			if sp.Truncated {
				t.Fatalf("req %d truncated in a complete stream", sp.ReqID)
			}
			if sp.Decided() {
				sum := sp.WaitMs + sp.ExecMs + sp.PreemptedMs
				if math.Abs(sum-sp.E2EMs()) > 1e-6 {
					t.Fatalf("req %d: decomposition %v != e2e %v", sp.ReqID, sum, sp.E2EMs())
				}
			}
			if want := grants[sp.ReqID]; sp.Decided() && sp.Blocks != want {
				t.Fatalf("req %d: %d blocks folded, %d grants emitted", sp.ReqID, sp.Blocks, want)
			}
			if math.Abs(sp.ExecMs-execMs[sp.ReqID]) > 1e-6 && sp.Decided() {
				t.Fatalf("req %d: exec %v, granted %v", sp.ReqID, sp.ExecMs, execMs[sp.ReqID])
			}
			if sp.Preemptions != preempt[sp.ReqID] {
				t.Fatalf("req %d: %d preemptions folded, %d emitted", sp.ReqID, sp.Preemptions, preempt[sp.ReqID])
			}
		}
	})
}

// lastStart finds the index of the most recent StartBlock event for req.
func lastStart(events []Event, req int) int {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].ReqID == req && events[i].Kind == StartBlock {
			return i
		}
	}
	return -1
}
