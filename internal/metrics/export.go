package metrics

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"split/internal/model"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// WriteRecordsCSV emits per-request records as CSV with a header, the raw
// data behind every figure. The outcome column is "served" for a completed
// request (trace.SpanOutcomeServed, as the span fold labels it) and the shed
// reason otherwise.
func WriteRecordsCSV(w io.Writer, recs []policy.Record) error {
	if _, err := fmt.Fprintln(w, "id,model,class,arrive_ms,start_ms,done_ms,ext_ms,e2e_ms,wait_ms,response_ratio,preemptions,split,device,outcome"); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		outcome := r.Outcome
		if r.Served() {
			outcome = trace.SpanOutcomeServed
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%t,%d,%s\n",
			r.ID, r.Model, r.Class, r.ArriveMs, r.StartMs, r.DoneMs, r.ExtMs,
			r.E2EMs(), r.WaitMs(), r.ResponseRatio(), r.Preemptions, r.Split, r.Device, outcome); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecordsCSV parses a records CSV (as written by WriteRecordsCSV) back
// into full Records — the round-trip counterpart of ReadArrivalsCSV, used
// to re-analyze archived runs with newer metrics. Derived columns (e2e_ms,
// wait_ms, response_ratio) are ignored; Record recomputes them.
func ReadRecordsCSV(r io.Reader) ([]policy.Record, error) {
	scanner := bufio.NewScanner(r)
	if !scanner.Scan() {
		return nil, fmt.Errorf("metrics: empty records CSV")
	}
	header := strings.Split(scanner.Text(), ",")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, want := range []string{"id", "model", "class", "arrive_ms", "start_ms", "done_ms", "ext_ms", "preemptions", "split"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("metrics: records CSV missing column %q", want)
		}
	}
	var recs []policy.Record
	line := 1
	for scanner.Scan() {
		line++
		fields := strings.Split(scanner.Text(), ",")
		if len(fields) < len(header) {
			return nil, fmt.Errorf("metrics: line %d has %d fields", line, len(fields))
		}
		var rec policy.Record
		var err error
		fail := func(column string, e error) error {
			return fmt.Errorf("metrics: line %d %s: %w", line, column, e)
		}
		if rec.ID, err = strconv.Atoi(fields[col["id"]]); err != nil {
			return nil, fail("id", err)
		}
		rec.Model = fields[col["model"]]
		rec.Class = model.RequestClass(fields[col["class"]])
		for column, dst := range map[string]*float64{
			"arrive_ms": &rec.ArriveMs,
			"start_ms":  &rec.StartMs,
			"done_ms":   &rec.DoneMs,
			"ext_ms":    &rec.ExtMs,
		} {
			if *dst, err = strconv.ParseFloat(fields[col[column]], 64); err != nil {
				return nil, fail(column, err)
			}
		}
		if rec.Preemptions, err = strconv.Atoi(fields[col["preemptions"]]); err != nil {
			return nil, fail("preemptions", err)
		}
		if rec.Split, err = strconv.ParseBool(fields[col["split"]]); err != nil {
			return nil, fail("split", err)
		}
		// device is optional so archives written before the fleet format
		// revision keep loading; absent means device 0.
		if i, ok := col["device"]; ok {
			if rec.Device, err = strconv.Atoi(fields[i]); err != nil {
				return nil, fail("device", err)
			}
		}
		// outcome is optional for the same reason; absent means served.
		if i, ok := col["outcome"]; ok {
			switch w := fields[i]; w {
			case "":
				return nil, fail("outcome", errors.New("empty"))
			case trace.SpanOutcomeServed:
			default:
				rec.Outcome = w
			}
		}
		recs = append(recs, rec)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// WriteViolationCurveCSV emits a Figure 6 series as CSV: alpha,violation.
func WriteViolationCurveCSV(w io.Writer, alphas, curve []float64) error {
	if len(alphas) != len(curve) {
		return fmt.Errorf("metrics: %d alphas for %d curve points", len(alphas), len(curve))
	}
	if _, err := fmt.Fprintln(w, "alpha,violation_rate"); err != nil {
		return err
	}
	for i := range alphas {
		if _, err := fmt.Fprintf(w, "%.1f,%.6f\n", alphas[i], curve[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteJitterCSV emits a Figure 7 cell as CSV: model,jitter_ms.
func WriteJitterCSV(w io.Writer, jitter map[string]float64) error {
	if _, err := fmt.Fprintln(w, "model,jitter_ms"); err != nil {
		return err
	}
	for _, m := range sortedKeys(jitter) {
		if _, err := fmt.Fprintf(w, "%s,%.6f\n", m, jitter[m]); err != nil {
			return err
		}
	}
	return nil
}

// ReadArrivalsCSV parses a records CSV (as written by WriteRecordsCSV) back
// into an arrival trace — id, model and arrive_ms only — enabling what-if
// replay of a recorded workload through a different system.
func ReadArrivalsCSV(r io.Reader) ([]workload.Arrival, error) {
	scanner := bufio.NewScanner(r)
	if !scanner.Scan() {
		return nil, fmt.Errorf("metrics: empty records CSV")
	}
	header := strings.Split(scanner.Text(), ",")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, want := range []string{"id", "model", "arrive_ms"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("metrics: records CSV missing column %q", want)
		}
	}
	var arrivals []workload.Arrival
	line := 1
	for scanner.Scan() {
		line++
		fields := strings.Split(scanner.Text(), ",")
		if len(fields) < len(header) {
			return nil, fmt.Errorf("metrics: line %d has %d fields", line, len(fields))
		}
		id, err := strconv.Atoi(fields[col["id"]])
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d id: %w", line, err)
		}
		at, err := strconv.ParseFloat(fields[col["arrive_ms"]], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d arrive_ms: %w", line, err)
		}
		arrivals = append(arrivals, workload.Arrival{
			ID:    id,
			Model: fields[col["model"]],
			AtMs:  at,
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].AtMs < arrivals[j].AtMs })
	for i := range arrivals {
		arrivals[i].ID = i
	}
	return arrivals, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
