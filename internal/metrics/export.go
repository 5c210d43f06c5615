package metrics

import (
	"fmt"
	"io"

	"split/internal/policy"
	"split/internal/trace"
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
