package trace

import (
	"math"
	"strconv"
	"strings"
	"time"

	"split/internal/fleet"
	"split/internal/place"
)

// Note names the sentence an event's detail renders and so fixes what each
// of the event's Args means. The notes form one closed table: every
// sentence any narrator, driver or baseline writes is one of them.
type Note uint8

// The notes, each with the sentence it renders. A sentence is a fmt format
// over the event's Args, read in order: %d is an integer, %.Nf a float, %s
// a Word, %t a boolean (0 is false) and %v a duration in milliseconds,
// printed as time.Duration prints.
const (
	// NoteNone renders no detail.
	NoteNone Note = iota

	// The engine's narration (engine/narrate.go), which both the simulator
	// and the server speak.
	NoteQueued    // arrive: pos=%d blocks=%d scanned=%d qlen=%d
	NoteDur       // start_block: dur=%.3f
	NoteDurBatch  // start_block: dur=%.3f n=%d
	NoteDurFrac   // start_block: dur=%.3f frac=%.2f
	NoteRR        // complete: rr=%.2f
	NoteRequeued  // preempt: requeued at %d
	NoteSpike     // fault: spike x%.2f attempt=%d
	NoteTransient // fault: transient attempt=%d, retrying
	NoteTerminal  // fault: terminal after %d attempts
	NoteScaleOut  // scale_out: active=%d depth=%d
	NoteScaleIn   // scale_in: active=%d drain=%d
	NotePlaced    // place: policy=%s depth=%d
	NoteAdmission // drop: admission: %s
	NoteWord      // shed, drop, cancel: %s
	NoteCancelWhy // cancel: %s: %s

	// The server's own events.
	NoteDepth        // elastic_on, elastic_off: depth=%d
	NoteDrainStart   // drain_start: depth=%d timeout=%v
	NoteDrainTimeout // drain_end: timeout, shed=%d
	NoteDrainClean   // drain_end: clean

	// The baselines' narration (internal/policy).
	NotePos         // ClockWork arrive: pos=%d
	NotePredictedRR // ClockWork drop: predicted rr=%.2f
	NoteChunk       // PREMA start_block: chunk=%.3f
	NoteLeft        // PREMA end_block: left=%.3f
	NoteBy          // PREMA preempt: by req %d
	NotePrio        // PREMA arrive: prio=%.0f
	NoteK           // Stream-Parallel arrive: k=%d
	NoteRT          // REEF arrive: rt=%t
	NoteRound       // RT-A start_block: round k=%d dur=%.3f
	NoteKilled      // REEF end_block: killed
	NoteKernelReset // REEF preempt: kernel reset

	numNotes
)

var noteFormats = [numNotes]string{
	NoteQueued:    "pos=%d blocks=%d scanned=%d qlen=%d",
	NoteDur:       "dur=%.3f",
	NoteDurBatch:  "dur=%.3f n=%d",
	NoteDurFrac:   "dur=%.3f frac=%.2f",
	NoteRR:        "rr=%.2f",
	NoteRequeued:  "requeued at %d",
	NoteSpike:     "spike x%.2f attempt=%d",
	NoteTransient: "transient attempt=%d, retrying",
	NoteTerminal:  "terminal after %d attempts",
	NoteScaleOut:  "active=%d depth=%d",
	NoteScaleIn:   "active=%d drain=%d",
	NotePlaced:    "policy=%s depth=%d",
	NoteAdmission: ReasonAdmission + ": %s",
	NoteWord:      "%s",
	NoteCancelWhy: "%s: %s",

	NoteDepth:        "depth=%d",
	NoteDrainStart:   "depth=%d timeout=%v",
	NoteDrainTimeout: "timeout, shed=%d",
	NoteDrainClean:   "clean",

	NotePos:         "pos=%d",
	NotePredictedRR: "predicted rr=%.2f",
	NoteChunk:       "chunk=%.3f",
	NoteLeft:        "left=%.3f",
	NoteBy:          "by req %d",
	NotePrio:        "prio=%.0f",
	NoteK:           "k=%d",
	NoteRT:          "rt=%t",
	NoteRound:       "round k=%d dur=%.3f",
	NoteKilled:      "killed",
	NoteKernelReset: "kernel reset",
}

// format returns the note's sentence as a fmt format (see the Note
// constants for what each verb reads).
func (n Note) format() string {
	if n < numNotes {
		return noteFormats[n]
	}
	return ""
}

// render returns the note's sentence over args. A sentence without
// arguments, and a single word, come back without an allocation.
func (n Note) render(args *[4]float64) string {
	f := n.format()
	switch {
	case f == "%s":
		return Word(args[0]).String()
	case strings.IndexByte(f, '%') < 0:
		return f
	}
	return string(n.appendTo(nil, args))
}

// appendTo appends the note's sentence over args to b.
func (n Note) appendTo(b []byte, args *[4]float64) []byte {
	f := n.format()
	next := 0
	for {
		i := strings.IndexByte(f, '%')
		if i < 0 {
			return append(b, f...)
		}
		b = append(b, f[:i]...)
		f = f[i+1:]
		v := args[next]
		next++
		switch f[0] {
		case 'd':
			b = strconv.AppendInt(b, int64(v), 10)
		case 's':
			b = append(b, Word(v).String()...)
		case 't':
			b = strconv.AppendBool(b, v != 0)
		case 'v':
			b = append(b, time.Duration(math.Round(v*float64(time.Millisecond))).String()...)
		case '.': // %.Nf
			b = appendFixed(b, v, int(f[1]-'0'))
			f = f[2:]
		}
		f = f[1:]
	}
}

// pow10 holds the scales appendFixed rounds at.
var pow10 = [...]float64{1, 10, 100, 1000, 10000}

// appendFixed appends v with prec decimals, exactly as
// strconv.AppendFloat(b, v, 'f', prec, 64) does, for prec < len(pow10).
// strconv rounds the exact binary value through a multiprecision decimal;
// here one fused multiply-add tells whether v·10^prec lies strictly
// between two half-integers, in which case rounding it is that simple.
// Ties, huge values, NaN and infinities take strconv's path.
func appendFixed(b []byte, v float64, prec int) []byte {
	scale := pow10[prec]
	m := math.Round(v * scale)
	// r is v·scale − m rounded once; rounding is monotonic, so |r| < 0.5
	// means the exact difference is below a half too.
	if r := math.FMA(v, scale, -m); !(r > -0.5 && r < 0.5 && math.Abs(m) < 1<<53) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	u, div := uint64(math.Abs(m)), uint64(scale)
	b = strconv.AppendUint(b, u/div, 10)
	if prec == 0 {
		return b
	}
	b = append(b, '.')
	frac := u % div
	for d := div / 10; d > 0; d /= 10 {
		b = append(b, byte('0'+frac/d))
		frac %= d
	}
	return b
}

// Word is an entry of the closed vocabulary that %s arguments render from:
// drop and shed reasons, cancellation states and causes, admission
// verdicts and placement policy names. The zero Word is the empty string.
// In an event's Args a Word is stored as its float64 value.
type Word uint8

// words is the vocabulary. Its entries are plain printable ASCII without
// quotes or backslashes, so a rendered detail never needs escaping in JSON
// or CSV (TestVocabularyNeedsNoEscaping).
var words = func() []string {
	w := []string{
		"",
		// Fates the engine decides (reasons.go).
		ReasonDeadline, ReasonCanceled, ReasonDeviceFault, ReasonAdmission,
		// The server's own rejections and shutdown sheds (serve.Drop*).
		"stopped", "drained", "unknown_model", "not_started",
		// Cancellation states (engine.CancelState) and the server's causes.
		"unknown", "queued", "inflight", "client cancel", "connection lost",
		// Admission verdicts.
		fleet.DetailTokenBucket, fleet.DetailQueueLength, fleet.DetailPredictedRR,
	}
	// Placement policies, alone and under spatial sharing's width policy.
	for _, p := range []string{place.RoundRobin, place.LeastLoaded, place.Affinity} {
		w = append(w, p, p+"+"+place.WidthFixed, p+"+"+place.WidthAdaptive)
	}
	return w
}()

var wordIndex = func() map[string]Word {
	m := make(map[string]Word, len(words))
	for i, w := range words {
		m[w] = Word(i)
	}
	return m
}()

// WordOf returns the vocabulary entry spelled s. The vocabulary is closed:
// a word outside it is a narrator's programming error and panics.
func WordOf(s string) Word {
	w, ok := wordIndex[s]
	if !ok {
		panic("trace: " + strconv.Quote(s) + " is not in the event vocabulary")
	}
	return w
}

// String returns the word's spelling.
func (w Word) String() string {
	if int(w) < len(words) {
		return words[w]
	}
	return ""
}
