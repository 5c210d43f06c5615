package metrics

import (
	"bytes"
	"strings"
	"testing"

	"split/internal/model"
	"split/internal/policy"
)

func TestWriteRecordsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,model,class") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "yolo") || !strings.Contains(lines[1], string(model.Short)) {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteViolationCurveCSV(t *testing.T) {
	var buf bytes.Buffer
	alphas := []float64{2, 3}
	curve := []float64{0.5, 0.25}
	if err := WriteViolationCurveCSV(&buf, alphas, curve); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2.0,0.500000") || !strings.Contains(out, "3.0,0.250000") {
		t.Errorf("csv = %q", out)
	}
	if err := WriteViolationCurveCSV(&buf, alphas, curve[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestWriteJitterCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJitterCSV(&buf, map[string]float64{"b": 2, "a": 1}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "a,") || !strings.HasPrefix(lines[2], "b,") {
		t.Errorf("csv = %v", lines)
	}
}

func TestReadArrivalsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	arrivals, err := ReadArrivalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 5 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	for i, a := range arrivals {
		if a.ID != i {
			t.Errorf("id %d at %d", a.ID, i)
		}
		if i > 0 && a.AtMs < arrivals[i-1].AtMs {
			t.Error("not ordered")
		}
	}
	if arrivals[0].Model != "yolo" {
		t.Errorf("model = %q", arrivals[0].Model)
	}
}

func TestReadArrivalsCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"nope,nope\n1,2\n",
		"id,model,arrive_ms\nx,m,1\n",
		"id,model,arrive_ms\n1,m,notanumber\n",
		"id,model,arrive_ms\n1\n",
	}
	for i, s := range cases {
		if _, err := ReadArrivalsCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
}

// TestReadRecordsCSVRoundTrip writes records and reads them back, checking
// every persisted field survives (times are written at 4-decimal precision,
// which the fixture values fit exactly) — the outcome too, for a shed of
// every simulator reason and for "drained", a reason only the live server
// (serve.DropDrained) gives.
func TestReadRecordsCSVRoundTrip(t *testing.T) {
	in := sample()
	in[2].Preemptions = 3
	in[4].Split = true
	for i, reason := range []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeAdmission, policy.OutcomeDeviceFault, "drained"} {
		r := rec(5+i, "yolo", model.Short, float64(i), 12.5+float64(i), 10)
		r.Outcome = reason
		if reason == policy.OutcomeAdmission {
			r.StartMs, r.DoneMs = -1, r.ArriveMs
		}
		in = append(in, r)
	}
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRecordsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d records back, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
		if out[i].ResponseRatio() != in[i].ResponseRatio() {
			t.Errorf("record %d rr drifted", i)
		}
	}
	// The live-vs-offline contract: metrics over the round-tripped records
	// match metrics over the originals.
	if ViolationRate(out, 4) != ViolationRate(in, 4) {
		t.Error("violation rate changed across the round trip")
	}
	if got, want := len(Served(out)), len(Served(in)); got != want {
		t.Errorf("%d served after the round trip, want %d", got, want)
	}
}

// TestReadRecordsCSVWithoutOutcome: an archive written before the outcome
// column loads, every record served.
func TestReadRecordsCSVWithoutOutcome(t *testing.T) {
	csv := "id,model,class,arrive_ms,start_ms,done_ms,ext_ms,e2e_ms,wait_ms,response_ratio,preemptions,split,device\n" +
		"0,yolo,Short,0.0000,0.0000,10.0000,10.0000,10.0000,0.0000,1.0000,0,false,1\n"
	out, err := ReadRecordsCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := rec(0, "yolo", model.Short, 0, 10, 10)
	want.Device = 1
	if len(out) != 1 || out[0] != want {
		t.Errorf("records = %+v, want [%+v]", out, want)
	}
}

func TestReadRecordsCSVErrors(t *testing.T) {
	header := "id,model,class,arrive_ms,start_ms,done_ms,ext_ms,e2e_ms,wait_ms,response_ratio,preemptions,split"
	cases := []string{
		"",
		"id,model,arrive_ms\n1,m,0\n", // missing full-record columns
		header + "\nx,m,Short,0,0,1,1,1,0,1,0,false\n",
		header + "\n1,m,Short,z,0,1,1,1,0,1,0,false\n",
		header + "\n1,m,Short,0,0,1,1,1,0,1,z,false\n",
		header + "\n1,m,Short,0,0,1,1,1,0,1,0,maybe\n",
		header + "\n1,m\n",
		header + ",outcome\n1,m,Short,0,0,1,1,1,0,1,0,false,\n",
	}
	for i, s := range cases {
		if _, err := ReadRecordsCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
}
