// Versioned workload trace format: JSONL with a header record, so any
// arrival trace — generated offline or recorded from a live serve run — can
// be persisted and replayed deterministically through policy.Split. The
// format round-trips bit-identically: WriteTrace(ReadTrace(x)) reproduces
// x byte for byte, because Go's shortest-form float encoding is exact.

package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"split/internal/jsonenc"
)

// TraceFormat is the header magic every workload trace carries.
const TraceFormat = "split-workload-trace"

// TraceVersion is the current trace schema revision. Version 1 is the
// initial format: a header line followed by one Arrival record per line.
// Readers accept any version <= TraceVersion; a higher version is a trace
// from a newer writer and is refused rather than misread.
const TraceVersion = 1

// TraceHeader is the first JSONL record of a trace file.
type TraceHeader struct {
	// Format must equal TraceFormat.
	Format string `json:"format"`
	// Version is the schema revision the trace was written under.
	Version int `json:"version"`
	// Count is the number of arrival records that follow.
	Count int `json:"count"`
	// Seed, when the trace was generated, is the generator seed.
	Seed int64 `json:"seed,omitempty"`
	// ConfigHash, when the trace was generated, fingerprints the generator
	// configuration (see ConfigHash), so replays can assert they are
	// re-simulating the trace they think they are.
	ConfigHash string `json:"config_hash,omitempty"`
	// Source labels the trace origin, e.g. "generate" or "serve".
	Source string `json:"source,omitempty"`
}

// ConfigHash fingerprints a generator configuration (Config,
// CohortSetConfig, MMPPConfig, ...) as the FNV-1a hash of its canonical
// JSON encoding. Two configs hash equal iff their JSON forms match, which
// is what replay compatibility needs.
func ConfigHash(cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Configs are plain data structs; Marshal cannot fail on them.
		panic(fmt.Sprintf("workload: hashing config: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteTrace writes the header and arrivals as JSONL. The header's Format,
// Version and Count fields are stamped by the writer; the caller provides
// provenance (Seed, ConfigHash, Source). The header is encoding/json's; each
// arrival is appended by hand in the bytes encoding/json would write for it
// (see appendArrival).
func WriteTrace(w io.Writer, h TraceHeader, arrivals []Arrival) error {
	h.Format = TraceFormat
	h.Version = TraceVersion
	h.Count = len(arrivals)
	b, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("workload: writing trace header: %w", err)
	}
	b = append(b, '\n')
	for i := range arrivals {
		if b, err = appendArrival(b, &arrivals[i]); err != nil {
			return fmt.Errorf("workload: writing trace record %d: %w", i, err)
		}
		if len(b) >= 64<<10 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("workload: writing trace record %d: %w", i, err)
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("workload: flushing trace: %w", err)
	}
	return nil
}

// appendArrival appends a's record line as json.Encoder.Encode writes it:
//
//	{"id":…,"model":"…","at_ms":…[,"deadline_ms":…][,"cancel_at_ms":…][,"cohort":"…"]}
//
// with the optional members omitted when zero or empty. A NaN or infinite
// time fails as it fails encoding/json.
func appendArrival(b []byte, a *Arrival) ([]byte, error) {
	for _, f := range [...]float64{a.AtMs, a.DeadlineMs, a.CancelAtMs} {
		if err := jsonenc.CheckFinite(f); err != nil {
			return b, err
		}
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(a.ID), 10)
	b = append(b, `,"model":`...)
	b = jsonenc.AppendString(b, a.Model)
	b = append(b, `,"at_ms":`...)
	b = jsonenc.AppendFloat(b, a.AtMs)
	if a.DeadlineMs != 0 {
		b = jsonenc.AppendFloat(append(b, `,"deadline_ms":`...), a.DeadlineMs)
	}
	if a.CancelAtMs != 0 {
		b = jsonenc.AppendFloat(append(b, `,"cancel_at_ms":`...), a.CancelAtMs)
	}
	if a.Cohort != "" {
		b = jsonenc.AppendString(append(b, `,"cohort":`...), a.Cohort)
	}
	return append(b, '}', '\n'), nil
}

// ReadTrace parses a trace written by WriteTrace, validating the header
// magic, version, record count, and time ordering. A trace holds one JSON
// value per line: the header first, then one arrival per line; lines of
// whitespace alone are skipped. A line in the canonical form WriteTrace
// writes is parsed in place (see parseArrival); any other line is decoded
// by json.Unmarshal, so every record encoding/json reads as an Arrival
// reads the same here.
func ReadTrace(r io.Reader) (TraceHeader, []Arrival, error) {
	var h TraceHeader
	lr := lineReader{r: bufio.NewReaderSize(r, 64<<10)}
	line, err := lr.next()
	if err == nil {
		err = json.Unmarshal(line, &h)
	}
	if err != nil {
		return h, nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if h.Format != TraceFormat {
		return h, nil, fmt.Errorf("workload: not a workload trace (format %q)", h.Format)
	}
	if h.Version < 1 || h.Version > TraceVersion {
		return h, nil, fmt.Errorf("workload: trace version %d unsupported (reader speaks <= %d)", h.Version, TraceVersion)
	}
	if h.Count < 0 {
		return h, nil, fmt.Errorf("workload: trace header count %d negative", h.Count)
	}
	var arrivals []Arrival
	names := map[string]string{}
	prev := -1.0
	for {
		line, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return h, nil, fmt.Errorf("workload: reading trace record %d: %w", len(arrivals), err)
		}
		if len(arrivals) == h.Count {
			return h, nil, fmt.Errorf("workload: trace holds more records than its header's %d", h.Count)
		}
		if len(arrivals) == cap(arrivals) {
			// Grow as the records arrive, not as the header claims:
			// double, but stop at the count, so an honest header ends in
			// one exact slice and a lying one costs at most twice what
			// was sent.
			grow := min(h.Count-len(arrivals), max(len(arrivals), 1024))
			arrivals = append(make([]Arrival, 0, len(arrivals)+grow), arrivals...)
		}
		a, ok := parseArrival(line, names)
		if !ok {
			if a, err = unmarshalArrival(line); err != nil {
				return h, nil, fmt.Errorf("workload: reading trace record %d: %w", len(arrivals), err)
			}
		}
		if a.AtMs < 0 || a.AtMs < prev {
			return h, nil, fmt.Errorf("workload: trace not time-ordered at record %d (%v after %v)", len(arrivals), a.AtMs, prev)
		}
		prev = a.AtMs
		arrivals = append(arrivals, a)
	}
	if len(arrivals) != h.Count {
		return h, nil, fmt.Errorf("workload: trace holds %d records, header says %d", len(arrivals), h.Count)
	}
	return h, arrivals, nil
}

// unmarshalArrival decodes a record line that is not in canonical form.
// It is a function of its own so that only this path moves the arrival to
// the heap.
func unmarshalArrival(line []byte) (Arrival, error) {
	var a Arrival
	err := json.Unmarshal(line, &a)
	return a, err
}

// lineReader yields the non-blank lines of a trace from its reader's
// buffer: a line is valid until the next call to next.
type lineReader struct {
	r *bufio.Reader
	// long assembles a line longer than r's buffer.
	long []byte
}

// next returns the next line that is not JSON whitespace alone, its
// newline included, or io.EOF after the last.
func (lr *lineReader) next() ([]byte, error) {
	for {
		line, err := lr.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			lr.long = append(lr.long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = lr.r.ReadSlice('\n')
				lr.long = append(lr.long, line...)
			}
			line = lr.long
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		if !blank(line) {
			return line, nil
		}
		if err != nil {
			return nil, io.EOF
		}
	}
}

// blank reports whether b is JSON whitespace alone.
func blank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// parseArrival parses the canonical record line appendArrival writes,
//
//	{"id":…,"model":"…","at_ms":…[,"deadline_ms":…][,"cancel_at_ms":…][,"cohort":"…"]}
//
// with its members in that order, each optional one at most once, every
// number a JSON number, every string a quoted run of bytes encoding/json
// writes as themselves, and only whitespace after the closing brace. It
// reports false for any other line, whatever json.Unmarshal would make of
// it; on the lines it accepts, the two agree to the bit. Model and cohort
// names are interned in names, so a record costs no allocation.
func parseArrival(line []byte, names map[string]string) (a Arrival, ok bool) {
	p := lineParser{b: line, ok: true}
	p.expect(`{"id":`)
	a.ID = p.int()
	p.expect(`,"model":`)
	a.Model = p.name(names)
	p.expect(`,"at_ms":`)
	a.AtMs = p.float()
	if p.member(`,"deadline_ms":`) {
		a.DeadlineMs = p.float()
	}
	if p.member(`,"cancel_at_ms":`) {
		a.CancelAtMs = p.float()
	}
	if p.member(`,"cohort":`) {
		a.Cohort = p.name(names)
	}
	p.expect("}")
	if !p.ok || !blank(p.b) {
		return Arrival{}, false
	}
	return a, true
}

// lineParser consumes a canonical record line from the front; its first
// failure sticks, and every later step is a no-op.
type lineParser struct {
	b  []byte
	ok bool
}

// member consumes lit if the line continues with it.
func (p *lineParser) member(lit string) bool {
	if !p.ok || len(p.b) < len(lit) || string(p.b[:len(lit)]) != lit {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}

// expect consumes lit or fails.
func (p *lineParser) expect(lit string) {
	p.ok = p.member(lit)
}

// jsonNumber is one JSON number as the line spells it. When it has no
// exponent part and its digits, the point dropped, make an integer
// mant ≤ 2^53 (exact), its value is ±mant / 10^frac.
type jsonNumber struct {
	text  []byte
	mant  uint64
	frac  int
	exact bool
}

// number consumes one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, in one pass.
func (p *lineParser) number() (n jsonNumber) {
	b := p.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	if i, n.mant = digits(b, i, 0); i == first || (b[first] == '0' && i > first+1) {
		p.ok = false
		return n
	}
	if i < len(b) && b[i] == '.' {
		point := i
		if i, n.mant = digits(b, i+1, n.mant); i == point+1 {
			p.ok = false
			return n
		}
		n.frac = i - point - 1
	}
	n.exact = n.mant <= 1<<53
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i, _ = digits(b, i, 0); i == exp {
			p.ok = false
			return n
		}
		n.exact = false
	}
	p.b = b[i:]
	n.text = b[:i]
	return n
}

// digits returns the index of the first non-digit in b at or after i, and
// mant extended by the digits before it; mant stops changing once it
// passes 2^53.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if mant <= 1<<53 {
			mant = mant*10 + uint64(b[i]-'0')
		}
	}
	return i, mant
}

// int consumes an integer that fits an int, as json.Unmarshal reads one.
func (p *lineParser) int() int {
	if !p.ok {
		return 0
	}
	n := p.number()
	if !p.ok {
		return 0
	}
	if n.exact && n.frac == 0 && n.mant <= math.MaxInt {
		v := int(n.mant)
		if n.text[0] == '-' {
			v = -v
		}
		return v
	}
	// A number with a fraction or an exponent fails here, as it fails
	// json.Unmarshal into an int.
	v, err := strconv.ParseInt(string(n.text), 10, 0)
	p.ok = err == nil
	return int(v)
}

// pow10 holds the powers of ten that a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float consumes a number that fits a float64, as json.Unmarshal reads one.
func (p *lineParser) float() float64 {
	if !p.ok {
		return 0
	}
	n := p.number()
	if !p.ok {
		return 0
	}
	if n.exact && n.frac < len(pow10) {
		// mant and the power of ten are exact float64s, so their one
		// correctly rounded quotient is the value strconv.ParseFloat
		// returns: strconv reads such numbers the same way.
		v := float64(n.mant) / pow10[n.frac]
		if n.text[0] == '-' {
			v = -v
		}
		return v
	}
	v, err := strconv.ParseFloat(string(n.text), 64)
	p.ok = err == nil
	return v
}

// name consumes a quoted run of plain bytes and returns it interned.
func (p *lineParser) name(names map[string]string) string {
	if !p.ok || len(p.b) == 0 || p.b[0] != '"' {
		p.ok = false
		return ""
	}
	for i := 1; i < len(p.b); i++ {
		if c := p.b[i]; c == '"' {
			raw := p.b[1:i]
			p.b = p.b[i+1:]
			if s, ok := names[string(raw)]; ok {
				return s
			}
			s := string(raw)
			names[s] = s
			return s
		} else if !jsonenc.Plain(c) {
			break
		}
	}
	p.ok = false
	return ""
}

// Recorder accumulates the arrivals of a live serving run in workload form,
// so the run can be written with WriteTrace and re-simulated
// deterministically through policy.Split. It is safe for concurrent use;
// the serving path records under its own lock, admin surfaces read later.
type Recorder struct {
	mu sync.Mutex
	// chunks hold the n arrivals in recording order, recChunk to a chunk: an
	// arrival is written once where it stays, and costs its own bytes and
	// no index.
	chunks []*[recChunk]recorded
	n      int
	// cancels are the cancellations in recording order, which Trace applies.
	cancels []recCancel
}

// recChunk is how many arrivals one Recorder chunk holds: a run pays one
// allocation per recChunk arrivals.
const recChunk = 2048

// recorded is one admitted arrival as Observe saw it.
type recorded struct {
	id               int
	model            string
	atMs, deadlineMs float64
}

// recCancel is one ObserveCancel call, and how many arrivals had been
// recorded when it came: it belongs to the latest of those with its ID.
type recCancel struct {
	id, seen int
	atMs     float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return new(Recorder) }

// Observe records one admitted arrival. atMs is the server's virtual time;
// deadlineMs is the client-supplied relative deadline (0 for none).
func (r *Recorder) Observe(id int, modelName string, atMs, deadlineMs float64) {
	r.mu.Lock()
	i := r.n % recChunk
	if i == 0 {
		r.chunks = append(r.chunks, new([recChunk]recorded))
	}
	r.chunks[len(r.chunks)-1][i] = recorded{id: id, model: modelName, atMs: atMs, deadlineMs: deadlineMs}
	r.n++
	r.mu.Unlock()
}

// ObserveCancel records the cancellation time of a recorded arrival, which
// Trace backfills onto it; the latest cancellation of an arrival wins.
// IDs not recorded yet (e.g. requests rejected at admission) are ignored.
func (r *Recorder) ObserveCancel(id int, atMs float64) {
	r.mu.Lock()
	r.cancels = append(r.cancels, recCancel{id: id, seen: r.n, atMs: atMs})
	r.mu.Unlock()
}

// Len reports how many arrivals have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Trace returns the recorded arrivals as a replayable trace: a copy,
// ordered by (AtMs, ID) — concurrent enqueues can be recorded slightly out
// of order — with IDs preserved as the server assigned them.
func (r *Recorder) Trace() []Arrival {
	r.mu.Lock()
	out := make([]Arrival, r.n)
	for i := range out {
		a := &r.chunks[i/recChunk][i%recChunk]
		out[i] = Arrival{ID: a.id, Model: a.model, AtMs: a.atMs, DeadlineMs: a.deadlineMs}
	}
	// Each cancel goes to the arrival its ID named when it came: the latest
	// recorded before it.
	latest := make(map[int]int)
	next := 0
	for _, c := range r.cancels {
		for ; next < c.seen; next++ {
			latest[out[next].ID] = next
		}
		if i, ok := latest[c.id]; ok {
			out[i].CancelAtMs = c.atMs
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AtMs != out[j].AtMs {
			return out[i].AtMs < out[j].AtMs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Encode writes the recorded trace with WriteTrace under a "serve" source
// header.
func (r *Recorder) Encode(w io.Writer) error {
	return WriteTrace(w, TraceHeader{Source: "serve"}, r.Trace())
}
