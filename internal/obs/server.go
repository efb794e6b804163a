package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the embeddable observability endpoint. It serves:
//
//	/metrics  Prometheus text exposition of the registry
//	/healthz  liveness probe ("ok")
//	/varz     JSON dump of every metric (Registry.Snapshot)
//	/debug/pprof/  the runtime profiles (net/http/pprof): CPU, heap,
//	               goroutines, execution trace
//
// Daemons opt in with a listen flag (elasticd/rendezvousd -obs.listen);
// port 0 binds an ephemeral port readable back through Addr.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server
}

// Serve starts an observability server on addr. A nil registry means the
// process-wide Default() registry.
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/varz", s.handleVarz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	//lint:ignore goroleak the scrape listener lives for the process; Close tears it down via srv.Close
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes every open scrape connection.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", TextContentType)
	// Errors past the first byte cannot change the status code; a failed
	// scrape surfaces to the scraper as a truncated body.
	s.reg.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVarz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.reg.Snapshot())
}
