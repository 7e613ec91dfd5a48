package obs

// The debug surface: cmd/served mounts it beside its job, blob and
// health routes, and `explore -dash` serves it together with
// net/http/pprof, so both binaries answer every debug request the same
// way.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler returns a mux serving reg's debug endpoints:
//
//	GET /metrics       the metrics JSON document; ?format=prom for
//	                   Prometheus text exposition, ?format=text for the
//	                   summary table, 400 for any other format
//	GET /dash          the live dashboard page
//	GET /dash/data     s's sampled time series (empty for a nil sampler)
//	GET /debug/flight  the flight dump (WriteFlight)
//
// Callers register their own routes on the returned mux.
func Handler(reg *Registry, s *Sampler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		ctype, write := "application/json", reg.WriteMetricsJSON
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
		case "prom":
			ctype, write = "text/plain; version=0.0.4; charset=utf-8", reg.WriteProm
		case "text":
			ctype, write = "text/plain; charset=utf-8", reg.WriteText
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (json, prom or text)", format), http.StatusBadRequest)
			return
		}
		serve(w, ctype, write)
	})
	mux.HandleFunc("GET /dash", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML)
	})
	mux.HandleFunc("GET /dash/data", func(w http.ResponseWriter, r *http.Request) {
		doc := s.DashData()
		serve(w, "application/json", func(w io.Writer) error { return json.NewEncoder(w).Encode(&doc) })
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		serve(w, "application/json", reg.WriteFlight)
	})
	return mux
}

// serve answers with one exporter's output; an exporter that fails
// before writing anything (a value JSON cannot encode) turns into a 500.
func serve(w http.ResponseWriter, ctype string, write func(io.Writer) error) {
	w.Header().Set("Content-Type", ctype)
	if err := write(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
