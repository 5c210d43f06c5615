package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"split/internal/jsonenc"
)

// FuzzWorkloadTrace drives the cohort engine with arbitrary (bounded)
// configurations and checks the generator invariants plus the trace
// round trip: monotone non-negative times, dense IDs, cohort mix
// conservation, and bit-identical WriteTrace → ReadTrace → WriteTrace.
func FuzzWorkloadTrace(f *testing.F) {
	f.Add(int64(1), uint16(100), byte(0), byte(1), 40.0, 15.0, false)
	f.Add(int64(7), uint16(1000), byte(1), byte(2), 120.0, 8.0, true)
	f.Add(int64(-3), uint16(1), byte(2), byte(3), 0.5, 1e6, false)
	f.Add(int64(99), uint16(5000), byte(3), byte(0), 1e-3, 3.0, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kindA, kindB byte, meanA, meanB float64, envelope bool) {
		kinds := []string{ProcPoisson, ProcMMPP, ProcLogNormal, ProcPareto}
		bound := func(m float64) float64 {
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				return 10
			}
			return math.Min(math.Max(m, 1e-3), 1e6)
		}
		proc := func(kind byte, mean float64) Process {
			p := Process{Kind: kinds[int(kind)%len(kinds)], MeanIntervalMs: bound(mean)}
			switch p.Kind {
			case ProcMMPP:
				p.BurstIntervalMs = p.MeanIntervalMs / 4
				p.CalmDwellMs = p.MeanIntervalMs * 8
				p.BurstDwellMs = p.MeanIntervalMs * 2
				p.StartInBurst = kind%2 == 1
			case ProcLogNormal:
				p.Sigma = 1 + float64(kind%3)
			case ProcPareto:
				p.Alpha = 1.5 + float64(kind%3)
			}
			return p
		}
		cfg := CohortSetConfig{
			Cohorts: []Cohort{
				{Name: "alpha", Models: []string{"a0", "a1"}, Process: proc(kindA, meanA), DeadlineMs: 100, DeadlineJitterFrac: 0.5},
				{Name: "beta", Models: []string{"b0"}, Process: proc(kindB, meanB), CancelFrac: 0.2, CancelAfterMs: 50},
			},
			Count: int(n)%5000 + 1,
			Seed:  seed,
		}
		if envelope {
			cfg.Cohorts[0].Envelope = &Envelope{PeriodMs: bound(meanA) * 64, Factors: []float64{1, 4, 2}}
		}
		arrivals, err := GenerateCohorts(cfg)
		if err != nil {
			t.Fatalf("valid-by-construction config rejected: %v", err)
		}
		if len(arrivals) != cfg.Count {
			t.Fatalf("generated %d arrivals, want %d", len(arrivals), cfg.Count)
		}
		modelCohort := map[string]string{"a0": "alpha", "a1": "alpha", "b0": "beta"}
		perCohort := map[string]int{}
		prev := -1.0
		for i, a := range arrivals {
			if a.ID != i {
				t.Fatalf("arrival %d has ID %d; IDs must be dense", i, a.ID)
			}
			if a.AtMs < 0 || a.AtMs < prev || math.IsNaN(a.AtMs) || math.IsInf(a.AtMs, 0) {
				t.Fatalf("arrival %d at %v after %v", i, a.AtMs, prev)
			}
			prev = a.AtMs
			if modelCohort[a.Model] != a.Cohort {
				t.Fatalf("arrival %d: model %q labeled cohort %q", i, a.Model, a.Cohort)
			}
			perCohort[a.Cohort]++
			if a.CancelAtMs != 0 && a.CancelAtMs <= a.AtMs {
				t.Fatalf("arrival %d cancels at %v, not after %v", i, a.CancelAtMs, a.AtMs)
			}
		}
		if perCohort["alpha"]+perCohort["beta"] != cfg.Count {
			t.Fatalf("cohort counts %v do not conserve the mix (count %d)", perCohort, cfg.Count)
		}

		var first bytes.Buffer
		h := TraceHeader{Seed: seed, ConfigHash: ConfigHash(cfg)}
		if err := WriteTrace(&first, h, arrivals); err != nil {
			t.Fatal(err)
		}
		readH, readA, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written trace: %v", err)
		}
		if !reflect.DeepEqual(readA, arrivals) {
			t.Fatal("arrivals changed through the round trip")
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, readH, readA); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("trace does not round-trip bit-identically")
		}
	})
}

// FuzzReadTrace holds ReadTrace to encoding/json line by line: after a
// valid header, the arrivals it returns are, to the bit, those
// json.Unmarshal decodes from each non-blank line, or both fail (a line
// json.Unmarshal refuses, or a record out of time order).
func FuzzReadTrace(f *testing.F) {
	for _, body := range []string{
		`{"id":0,"model":"vgg19","at_ms":1.5,"deadline_ms":120,"cancel_at_ms":80.25,"cohort":"steady"}` + "\n",
		`{"model":"vgg19","id":1,"at_ms":2}` + "\n" + `{"at_ms":3,"cohort":"c","id":-2,"model":"m"}`,
		`{"id":2,"model":"m","at_ms":3,"extra":[1,{"a":null}]}` + "\n",
		`{"id":3,"model":"m","at_ms":4,"at_ms":5}` + "\n" + `{"id":3,"model":"m","at_ms":6,"deadline_ms":1,"deadline_ms":2}` + "\n",
		`{"id":4,"model":"a\u003cb","at_ms":6}` + "\n" + `{"id":5,"model":"é","at_ms":7,"cohort":"\u00e9\ud800"}` + "\n",
		`{"id":6,"model":"m","at_ms":8}` + "\r\n" + `{"id":7,"model":"m","at_ms":9} ` + "\t\r\n",
		"\n" + `{"id":0,"model":"m","at_ms":0}` + "\n \t\r\n\n" + `{"id":1,"model":"m","at_ms":0}`,
		`{"id":7,"model":"m","at_ms":1e3,"deadline_ms":2.5E-7,"cancel_at_ms":1.5e+3}` + "\n" + `{"id":8,"model":"m","at_ms":1000.0e0}`,
		`{"id":9223372036854775808,"model":"m","at_ms":1}` + "\n",
		`{"id":8,"model":"m","at_ms":1e400}` + "\n",
		`{"id":01,"model":"m","at_ms":1}` + "\n" + `{"id":1,"model":"m","at_ms":1.}` + "\n",
		`{"id":-0,"model":"m","at_ms":-0,"deadline_ms":-0}` + "\n" + "null\n",
		`{"ID":1,"Model":"m","AT_MS":2}` + "\n",
		"{\"id\":1,\"model\":\"\xff\",\"at_ms\":1}\n{\"id\":2,\"model\":\"a\tb\",\"at_ms\":1,\"cohort\":\"\x00\"}\n",
		`{"id":1,"model":"m","at_ms":1} x` + "\n" + `{"id":2,"model":"m","at_ms":1}{"id":3,"model":"m","at_ms":1}` + "\n",
	} {
		f.Add(body)
	}
	f.Fuzz(checkReadTraceAgainstUnmarshal)
}

// checkReadTraceAgainstUnmarshal reads body after a header that counts its
// non-blank lines and requires the arrivals json.Unmarshal decodes from
// those lines, to the bit, or an error where json.Unmarshal fails or the
// records fall out of time order.
func checkReadTraceAgainstUnmarshal(t *testing.T, body string) {
	var want []Arrival
	wantErr := false
	lines := 0
	prev := -1.0
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.Trim(line, " \t\r\n") == "" {
			continue
		}
		lines++
		var a Arrival
		if err := json.Unmarshal([]byte(line), &a); err != nil || a.AtMs < 0 || a.AtMs < prev {
			wantErr = true
			continue
		}
		prev = a.AtMs
		want = append(want, a)
	}
	header := fmt.Sprintf(`{"format":%q,"version":%d,"count":%d}`+"\n", TraceFormat, TraceVersion, lines)
	_, got, err := ReadTrace(strings.NewReader(header + body))
	if wantErr {
		if err == nil {
			t.Fatalf("ReadTrace accepted what encoding/json refuses: %q", body)
		}
		return
	}
	if err != nil {
		t.Fatalf("ReadTrace refused what encoding/json reads: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, encoding/json reads %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Model != w.Model || g.Cohort != w.Cohort ||
			math.Float64bits(g.AtMs) != math.Float64bits(w.AtMs) ||
			math.Float64bits(g.DeadlineMs) != math.Float64bits(w.DeadlineMs) ||
			math.Float64bits(g.CancelAtMs) != math.Float64bits(w.CancelAtMs) {
			t.Fatalf("record %d: %+v, encoding/json reads %+v", i, g, w)
		}
	}
}

// TestReadTraceNumbersMatchEncodingJSON: every number the canonical path
// reads, it reads as encoding/json does — decimals either side of 2^53
// digits and 22 fraction digits, exponents, shortest-form spellings of
// arbitrary doubles, and ids either side of the int64 range.
func TestReadTraceNumbersMatchEncodingJSON(t *testing.T) {
	nums := []string{"0", "-0", "0.0", "-0.0", "1", "0.5", "9007199254740992", "9007199254740993",
		"9007199254740991.5", "900719925474099.3", "0.9007199254740993", "0.0000000000000000000001",
		"0.00000000000000000000001", "1e22", "1e23", "123.456e-2", "4.9e-324", "1.7976931348623157e308",
		"1e-400", "1e400", "-1", "1.", ".5", "01", "-", "1e", "1e+", "0x10", "+1", "1_0", "Infinity", "NaN"}
	rng := uint64(7)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	for i := 0; i < 4000; i++ {
		var f float64
		switch i % 4 {
		case 0: // an arbitrary double
			f = math.Float64frombits(next())
		case 1: // a time or deadline in ms, as generators draw them
			f = float64(next()%(1<<53)) / float64(uint64(1)<<(next()%40))
		case 2: // a short decimal
			f = float64(next()%10000000) / 1000
		default: // an integer near 2^53
			f = float64(1<<53 - 50 + next()%100)
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			nums = append(nums, string(jsonenc.AppendFloat(nil, f)), strconv.FormatFloat(f, 'f', -1, 64),
				strconv.FormatFloat(f, 'e', int(next()%20), 64))
		}
		nums = append(nums, strconv.FormatUint(next()%(1<<54), 10)+"."+strconv.FormatUint(next()%1e9, 10))
	}
	ids := []string{"0", "-0", "-1", "9007199254740993", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "1.0", "1e2"}
	var body strings.Builder
	for i, n := range nums {
		fmt.Fprintf(&body, `{"id":%s,"model":"m","at_ms":0,"deadline_ms":%s,"cancel_at_ms":%s}`+"\n",
			ids[i%len(ids)], n, nums[(i*7)%len(nums)])
	}
	for _, line := range strings.SplitAfter(body.String(), "\n") {
		checkReadTraceAgainstUnmarshal(t, line)
	}
}

// mapRecorder is the Recorder as it was before chunks: a growing slice of
// arrivals and a map from ID to position, which a cancellation backfills
// through as it comes. FuzzRecorderMatchesMap holds Recorder to it.
type mapRecorder struct {
	arrivals []Arrival
	byID     map[int]int
}

func (r *mapRecorder) observe(id int, modelName string, atMs, deadlineMs float64) {
	r.byID[id] = len(r.arrivals)
	r.arrivals = append(r.arrivals, Arrival{ID: id, Model: modelName, AtMs: atMs, DeadlineMs: deadlineMs})
}

func (r *mapRecorder) observeCancel(id int, atMs float64) {
	if i, ok := r.byID[id]; ok {
		r.arrivals[i].CancelAtMs = atMs
	}
}

func (r *mapRecorder) trace() []Arrival {
	out := make([]Arrival, len(r.arrivals))
	copy(out, r.arrivals)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AtMs != out[j].AtMs {
			return out[i].AtMs < out[j].AtMs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// FuzzRecorderMatchesMap: over any sequence of Observe and ObserveCancel,
// the chunked Recorder's Trace is the map-based one's. Each op is three
// bytes: a kind, an ID and a time. IDs repeat and come out of order;
// cancels name unknown IDs, IDs not recorded yet (ignored, even once
// recorded) and IDs already canceled (the last wins); and a burst op
// records past one chunk.
func FuzzRecorderMatchesMap(f *testing.F) {
	f.Add([]byte{0, 3, 10, 0, 1, 10, 1, 3, 15, 1, 99, 16})
	f.Add([]byte{1, 5, 1, 0, 5, 2, 1, 5, 3, 1, 5, 4, 0, 5, 5, 1, 5, 6})
	f.Add([]byte{2, 0, 0, 1, 7, 9, 2, 1, 1, 1, 200, 5, 0, 7, 1, 1, 7, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		got, want := NewRecorder(), &mapRecorder{byID: make(map[int]int)}
		models := []string{"vgg19", "resnet50", "yolov2"}
		burstID := 1000
		for i := 0; i+2 < len(ops); i += 3 {
			id, at := int(ops[i+1]%64), float64(ops[i+2])
			switch ops[i] % 4 {
			case 0, 3:
				m, dl := models[id%len(models)], float64(id%3)*25
				got.Observe(id, m, at, dl)
				want.observe(id, m, at, dl)
			case 1:
				got.ObserveCancel(id, at+0.5)
				want.observeCancel(id, at+0.5)
			case 2:
				// A burst of fresh IDs, some of which later ops cancel.
				for range recChunk/2 + id {
					got.Observe(burstID, models[0], at, 0)
					want.observe(burstID, models[0], at, 0)
					burstID++
				}
				got.ObserveCancel(burstID-1-id, at+1)
				want.observeCancel(burstID-1-id, at+1)
			}
		}
		if got.Len() != len(want.arrivals) {
			t.Fatalf("Len = %d, the map recorder's %d", got.Len(), len(want.arrivals))
		}
		if g, w := got.Trace(), want.trace(); !reflect.DeepEqual(g, w) {
			for i := range w {
				if i >= len(g) || g[i] != w[i] {
					t.Fatalf("Trace differs first at %d: %+v, the map recorder's %+v", i, g[i:min(i+1, len(g))], w[i])
				}
			}
			t.Fatalf("Trace has %d arrivals, the map recorder's %d", len(g), len(w))
		}
	})
}

// TestRecorderObserveAllocs: recording an arrival allocates once per chunk,
// at most once per thousand calls.
func TestRecorderObserveAllocs(t *testing.T) {
	const calls = 100_000
	r, id := NewRecorder(), 0
	got := testing.AllocsPerRun(1, func() {
		for range calls {
			r.Observe(id, "vgg19", float64(id), 0)
			id++
		}
	}) / calls
	if t.Logf("%.5f allocations per Observe", got); got > 1.0/1000 {
		t.Errorf("%.5f allocations per Observe, want ≤ 0.001", got)
	}
}
