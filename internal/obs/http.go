package obs

import (
	"net/http"
	"net/http/pprof"

	"systrace/internal/telemetry"
)

// Handler serves the observability surface over HTTP for
// `tracestat serve`: live telemetry in both export formats, the span
// timeline, the flight recorder, the guest-PC profile, and the host
// runtime's own net/http/pprof endpoints. reg, prof, and res may be
// nil; the corresponding endpoints then report 404.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition of reg
//	/metrics.json   JSON export of reg
//	/spans          text Gantt of the span timeline
//	/spans.json     JSON span timeline
//	/events         flight-recorder dump
//	/profile        folded-stack guest profile (flamegraph input)
//	/debug/pprof/   host-side Go pprof
func Handler(reg *telemetry.Registry, prof *Profile, res Resolver) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteGantt(w)
	})
	mux.HandleFunc("/spans.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteTimelineJSON(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		Default.WriteDump(w)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		if prof == nil || res == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		prof.WriteFolded(w, res)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
