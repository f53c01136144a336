// Package obs is tracenet's live observability plane: the serving surface
// that turns the write-at-exit telemetry layer (internal/telemetry) into a
// continuously pollable one, the on-ramp to the long-running tracenetd
// collection service.
//
// Three pieces compose here. Server is an HTTP exposition server mounting
// the metric registry (/metrics Prometheus text, /metrics.json), liveness
// and readiness (/healthz, /readyz with pluggable checks), recent structured
// logs (/logz), live campaign progress (/campaigns), an on-demand
// flight-recorder snapshot (/flightz), and the runtime profiler
// (/debug/pprof/). Logger is a structured, leveled JSON-lines logger clocked
// by the injected telemetry.Clock, replacing ad-hoc transcript prints. The
// health checks in health.go judge a campaign's Progress/Watchdog state
// (probe-budget exhaustion, breaker storms, stalls).
//
// Determinism: everything this package renders is derived from the virtual
// clock and the deterministic registry, never the wall clock — the package
// sits inside the tracenetlint determinism/clocksource scope. The /metrics
// and /campaigns bodies of a finished same-seed campaign are byte-identical
// at any parallelism (the Snapshot contract in internal/collect); inherently
// schedule-dependent surfaces (/logz ordering under concurrency, live
// mid-run snapshots) are excluded from that contract and from golden tests.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"tracenet/internal/collect"
	"tracenet/internal/telemetry"
)

// Connection timeouts: a client that never finishes its request headers or
// body, or idles between keep-alive requests, must not hold a connection —
// or a handler blocked reading the body — forever. There is no write
// timeout: /debug/pprof/profile?seconds=N streams for N seconds (net/http
// lifts the read deadline once the body is read, so the read timeout does
// not cut it short). readHeaderTimeout and readTimeout are variables only
// so a test can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 15 * time.Second
)

const idleTimeout = 2 * time.Minute

// Check is one readiness probe: Probe returns nil when healthy, or an error
// describing why the process should not be considered ready.
type Check struct {
	Name  string
	Probe func() error
}

// Server exposes one process's observability surfaces over HTTP. Construct
// with NewServer, register campaign and readiness sources, then either
// Start it on an address or mount Handler in a test server. All methods are
// safe for concurrent use.
type Server struct {
	tel *telemetry.Telemetry
	log *Logger
	mux *http.ServeMux
	hs  *http.Server

	mu              sync.Mutex
	checkSources    []func() []Check
	campaignSources []func() []CampaignEntry
}

// CampaignEntry is one published campaign: its display name and live
// progress. See AddCampaignSource.
type CampaignEntry struct {
	Name string
	Prog *collect.Progress
}

// NewServer builds a server over the run's telemetry (may be nil: metric
// endpoints then answer 503) and logger (may be nil: /logz reports logging
// disabled).
func NewServer(tel *telemetry.Telemetry, lg *Logger) *Server {
	s := &Server{tel: tel, log: lg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.serveIndex)
	s.mux.HandleFunc("/metrics", s.serveMetrics)
	s.mux.HandleFunc("/metrics.json", s.serveMetricsJSON)
	s.mux.HandleFunc("/healthz", s.serveHealthz)
	s.mux.HandleFunc("/readyz", s.serveReadyz)
	s.mux.HandleFunc("/logz", s.serveLogz)
	s.mux.HandleFunc("/campaigns", s.serveCampaigns)
	s.mux.HandleFunc("/flightz", s.serveFlightz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout}
	return s
}

// AddCheckSource registers a readiness source: /readyz calls every source on
// each request, in registration order, runs the returned checks and answers
// 503 when any fails. A source can change its checks as the process runs —
// a daemon's per-campaign stall checks exist exactly while their campaign
// runs. The source is called without the server lock held and must be safe
// for concurrent use.
func (s *Server) AddCheckSource(src func() []Check) {
	s.mu.Lock()
	s.checkSources = append(s.checkSources, src)
	s.mu.Unlock()
}

// AddCampaignSource registers a campaign source: /campaigns calls every
// source on each request, in registration order, and renders the returned
// entries in the order each source yields them (the source owns the
// ordering contract — the daemon yields submission order, keeping the body
// deterministic). Called without the server lock held; must be safe for
// concurrent use.
func (s *Server) AddCampaignSource(src func() []CampaignEntry) {
	s.mu.Lock()
	s.campaignSources = append(s.campaignSources, src)
	s.mu.Unlock()
}

// Mount attaches an additional handler subtree to the server's mux — the
// composition point tracenetd uses to serve its /api/v1/ endpoints on the
// same listener as the observability surfaces. The pattern follows
// http.ServeMux rules; mounting a pattern that collides with a built-in
// endpoint panics, like any duplicate ServeMux registration.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Handler returns the server's mux, for mounting in tests (httptest) or a
// caller-owned http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in the
// background until Shutdown. The bound address is returned so callers can
// report the resolved port.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := s.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("observability server failed", "err", err.Error())
		}
	}()
	return ln.Addr(), nil
}

// Shutdown gracefully stops a Started server, waiting for in-flight
// requests up to the context's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// endpoints is the index listing; also the documentation order in DESIGN.md.
var endpoints = []struct{ path, desc string }{
	{"/metrics", "metric registry, Prometheus text exposition"},
	{"/metrics.json", "metric registry, JSON exposition"},
	{"/healthz", "liveness: 200 once the process serves"},
	{"/readyz", "readiness: runs the registered health checks"},
	{"/logz", "recent structured logs (?n=100&level=debug)"},
	{"/campaigns", "live campaign progress snapshots, JSON"},
	{"/flightz", "on-demand flight-recorder snapshot"},
	{"/debug/pprof/", "runtime profiler index"},
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "tracenet observability plane")
	for _, e := range endpoints {
		fmt.Fprintf(w, "  %-14s %s\n", e.path, e.desc)
	}
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil || s.tel.Registry == nil {
		http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Registry.WritePrometheus(w)
}

func (s *Server) serveMetricsJSON(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil || s.tel.Registry == nil {
		http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tel.Registry.WriteJSON(w)
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok tick=%d\n", s.tel.Ticks())
}

func (s *Server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sources := append([]func() []Check(nil), s.checkSources...)
	s.mu.Unlock()
	var checks []Check
	for _, src := range sources {
		checks = append(checks, src()...)
	}

	type verdict struct {
		name string
		err  error
	}
	verdicts := make([]verdict, 0, len(checks))
	ready := true
	for _, c := range checks {
		err := c.Probe()
		if err != nil {
			ready = false
		}
		verdicts = append(verdicts, verdict{c.Name, err})
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	for _, v := range verdicts {
		if v.err != nil {
			fmt.Fprintf(w, "fail %s: %v\n", v.name, v.err)
		} else {
			fmt.Fprintf(w, "ok %s\n", v.name)
		}
	}
	if ready {
		fmt.Fprintln(w, "ready")
	} else {
		fmt.Fprintln(w, "not ready")
	}
}

func (s *Server) serveLogz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.log == nil {
		fmt.Fprintln(w, "structured logging disabled")
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	min := LevelDebug
	if q := r.URL.Query().Get("level"); q != "" {
		v, err := ParseLevel(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		min = v
	}
	for _, line := range s.log.Tail(n, min) {
		fmt.Fprintln(w, line)
	}
}

// campaignDoc is one /campaigns entry: the published name plus the progress
// snapshot. Entries render in source order (names need not be unique, so no
// map is involved and the body stays byte-stable).
type campaignDoc struct {
	Name string `json:"name"`
	collect.Snapshot
}

func (s *Server) serveCampaigns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sources := append([]func() []CampaignEntry(nil), s.campaignSources...)
	s.mu.Unlock()

	docs := []campaignDoc{}
	for _, src := range sources {
		for _, e := range src() {
			docs = append(docs, campaignDoc{Name: e.Name, Snapshot: e.Prog.Snapshot()})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Campaigns []campaignDoc `json:"campaigns"`
	}{docs}); err != nil {
		// Headers are already on the wire; all that is left is noting the
		// failed response (a closed client connection, usually).
		s.log.Warn("campaigns response failed", "err", err.Error())
	}
}

func (s *Server) serveFlightz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.tel.DumpRecorder(w, "http /flightz")
}
