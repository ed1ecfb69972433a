package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves reg as an OpenMetrics text exposition — the
// /metrics endpoint Prometheus scrapes. A nil registry serves a valid
// page carrying only build_info.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", OpenMetricsContentType)
		_ = WriteOpenMetrics(w, reg)
	})
}

// HealthzHandler is the liveness probe: the process answering at all is
// the signal, so it always returns 200.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ReadyzHandler is the readiness probe: 200 while every check in h
// passes, 503 with the failing check's error once one fails (farmd:
// draining; cdgd: queue saturated or data root unwritable), so load
// balancers route around the node.
func ReadyzHandler(h *Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := h.Err(); err != nil {
			http.Error(w, fmt.Sprintf("not ready: %v", err), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
}

// RegisterOps mounts the fleet operations endpoints — /metrics,
// /healthz, /readyz — on mux. cdgd mounts them next to its campaign
// API; the debug server mounts them next to /debug/.
func RegisterOps(mux *http.ServeMux, reg *Registry, h *Health) {
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/healthz", HealthzHandler())
	mux.Handle("/readyz", ReadyzHandler(h))
}

// DebugServer serves the debug HTTP endpoint:
//
//	/debug/pprof/   net/http/pprof profiles (cpu, heap, goroutine, ...)
//	/metrics        OpenMetrics text exposition (Prometheus scrape)
//	/healthz        liveness probe (always 200)
//	/readyz         readiness probe (503 while a health check fails)
//
// It binds its own mux, so importing net/http/pprof's side effects on
// http.DefaultServeMux are irrelevant and nothing is exposed unless
// the operator opts in with -debug-addr.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a debug server on addr (":0" picks a free port)
// publishing reg, with readiness answered from health (nil: always
// ready). It returns once the listener is bound; serving continues in
// the background until Close.
func ServeDebug(addr string, reg *Registry, health *Health) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	RegisterOps(mux, reg, health)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
