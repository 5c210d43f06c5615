package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"

	"split/internal/modelid"
	"split/internal/trace"
)

// AdminConfig assembles the splitd admin surface. Every field may be nil
// (or zero); the corresponding endpoint degrades to an empty-but-valid
// response, so callers wire only what they have.
type AdminConfig struct {
	// Registry backs /metrics.
	Registry *Registry
	// Ring is the flight recorder backing /tracez and /spanz.
	Ring *trace.Ring
	// Queuez provides the /queuez payload (live queue snapshot).
	Queuez func() any
	// Health provides the /healthz payload; when nil a default payload
	// with status plus build/version info is served.
	Health func() any
	// TimeSeries provides the /timeseriesz payload (rolling windowed QoS).
	TimeSeries func() TimeSeriesSnapshot
}

// Mux builds the admin endpoint:
//
//	/metrics      Prometheus text exposition of Registry
//	/healthz      JSON from Health (default includes build/version info)
//	/queuez       JSON from Queuez — the live queue snapshot
//	/tracez       flight-recorder dump as JSON lines; ?n= caps the event
//	              count (most recent), ?model= and ?kind= filter
//	/spanz        the ring folded into request span trees (SpanBuilder);
//	              ?n= keeps the most recently arrived requests
//	/timeseriesz  JSON from TimeSeries — windowed throughput/viol@α/
//	              depth/busy trajectory
//	/debug/pprof  the standard net/http/pprof handlers
//
// Every endpoint sets an explicit Content-Type. The mux is deliberately
// built from explicit pprof handler funcs rather than the package's
// init-time DefaultServeMux registration, so embedding programs keep
// control of what they expose.
func (c AdminConfig) Mux() *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		var v any
		if c.Health != nil {
			v = c.Health()
		} else {
			v = map[string]string{
				"status":     "ok",
				"version":    BuildVersion(),
				"go_version": runtime.Version(),
			}
		}
		writeJSON(w, v)
	})

	mux.HandleFunc("/queuez", func(w http.ResponseWriter, _ *http.Request) {
		var v any = struct{}{}
		if c.Queuez != nil {
			v = c.Queuez()
		}
		writeJSON(w, v)
	})

	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		events := filterEvents(c.Ring.Snapshot(), r)
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := trace.WriteJSONL(w, events); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/spanz", func(w http.ResponseWriter, r *http.Request) {
		n, err := intParam(r, "n", 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tree := trace.SpanBuilder{MaxRequests: n}.Build(c.Ring.Snapshot())
		writeJSON(w, tree)
	})

	mux.HandleFunc("/timeseriesz", func(w http.ResponseWriter, _ *http.Request) {
		var v TimeSeriesSnapshot
		if c.TimeSeries != nil {
			v = c.TimeSeries()
		}
		writeJSON(w, v)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// filterEvents applies the /tracez query knobs: ?model= and ?kind= keep
// matching events, ?n= keeps the most recent n after filtering. A bad ?n=
// is treated as absent (the dump endpoint stays forgiving).
func filterEvents(events []trace.Event, r *http.Request) []trace.Event {
	q := r.URL.Query()
	model, kind := q.Get("model"), q.Get("kind")
	if model != "" || kind != "" {
		// The query resolves once, and without interning: a name the
		// process never saw matches no event.
		id, known := modelid.Lookup(model)
		kept := events[:0:0]
		for _, e := range events {
			if model != "" && (!known || e.Model != id) {
				continue
			}
			if kind != "" && e.Kind.String() != kind {
				continue
			}
			kept = append(kept, e)
		}
		events = kept
	}
	if n, err := intParam(r, "n", 0); err == nil && n > 0 && n < len(events) {
		events = events[len(events)-n:]
	}
	return events
}

// intParam parses a non-negative integer query parameter, returning def
// when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return def, fmt.Errorf("bad %s=%q: want a non-negative integer", name, raw)
	}
	return n, nil
}

// BuildVersion reports the binary's VCS revision (or module version) from
// the embedded build info, "unknown" when the binary was built without
// VCS stamping (e.g. `go test`).
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			return bi.Main.Version
		}
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
