package main

import (
	"testing"
	"time"
)

type timeT = time.Time

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// TestOpenLoopChargesASenderStallToTheRequestsDueDuringIt is the
// coordinated-omission check: the sender is stalled for 50 ms while
// requests keep falling due. Every request answers instantly, so a
// latency measured from the send time would read zero for all of them; a
// latency measured from the due time shows, for each request that was due
// during the stall, how long the stall made it wait.
func TestOpenLoopChargesASenderStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		n       = 40
		every   = 5 * time.Millisecond
		stallAt = 10 // the request whose send blocks
		stall   = 50 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	sent := make([]time.Duration, n)
	replied := make([]time.Duration, n)
	start := time.Now()
	openLoop(start, due, sent, func(i int) func() {
		if i == stallAt {
			time.Sleep(stall)
		}
		return func() { replied[i] = time.Since(start) }
	})

	stallEnds := sent[stallAt] + stall
	hit := 0
	for i := range due {
		fromDue := replied[i] - due[i]
		switch {
		case i > stallAt && due[i] < stallEnds:
			// Due while the sender was stuck: it cannot have been sent
			// before the stall ended, and its latency must say so.
			hit++
			if want := stallEnds - due[i]; fromDue < want {
				t.Errorf("request %d was due %v into a stall ending at %v but reports %v, want at least %v",
					i, due[i], stallEnds, fromDue, want)
			}
			if sent[i] < stallEnds {
				t.Errorf("request %d was sent at %v, before the stall ended at %v", i, sent[i], stallEnds)
			}
		case sent[i] < due[i]:
			t.Errorf("request %d was sent at %v, before it was due at %v", i, sent[i], due[i])
		}
	}
	if want := int(stall/every) - 1; hit < want {
		t.Fatalf("only %d requests fell due during the stall, want at least %d", hit, want)
	}
	// The schedule does not slip: the last request is due at a fixed time,
	// stall or no stall, and is sent close to it.
	if late := sent[n-1] - due[n-1]; late > 20*time.Millisecond {
		t.Errorf("the last request was sent %v late: the stall pushed the schedule back", late)
	}
}
