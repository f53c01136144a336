package obs_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// obsCampaign runs one deterministic campaign with live progress published,
// then mounts its observability plane on an httptest server.
type obsCampaign struct {
	tel  *telemetry.Telemetry
	prog *collect.Progress
	wd   *collect.Watchdog
	net  *netsim.Network
	srv  *obs.Server
	ts   *httptest.Server
}

func runObsCampaign(t *testing.T, parallel int, mutate func(*collect.Config)) *obsCampaign {
	t.Helper()
	tp, targets := topo.Random(topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2})
	n := netsim.New(tp, netsim.Config{Seed: 7})
	tel := telemetry.New(n)
	tel.Recorder = telemetry.NewFlightRecorder(64)
	n.SetTelemetry(tel)

	prog := collect.NewProgress()
	cfg := collect.Config{
		Targets:   targets,
		Parallel:  parallel,
		Probe:     probe.Options{Cache: true},
		Telemetry: tel,
		Progress:  prog,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := collect.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	lg := obs.NewLogger(n, nil, obs.LevelDebug, 0)
	lg.Info("campaign finished")
	wd := collect.NewWatchdog(prog, tel, 0, "")
	srv := obs.NewServer(tel, lg)
	srv.AddCampaignSource(func() []obs.CampaignEntry { return []obs.CampaignEntry{{Name: "campaign", Prog: prog}} })
	checks := []obs.Check{obs.BudgetCheck(prog), obs.BreakerStormCheck(prog, 0), obs.StallCheck(wd, n)}
	srv.AddCheckSource(func() []obs.Check { return checks })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &obsCampaign{tel: tel, prog: prog, wd: wd, net: n, srv: srv, ts: ts}
}

func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// The tentpole golden test: /metrics and /campaigns bodies of a finished
// same-seed campaign are byte-identical at parallel 1 and parallel 8.
func TestMetricsAndCampaignsGoldenAcrossParallelism(t *testing.T) {
	fetch := func(parallel int) (string, string) {
		oc := runObsCampaign(t, parallel, nil)
		mcode, metrics := get(t, oc.ts.URL, "/metrics")
		ccode, campaigns := get(t, oc.ts.URL, "/campaigns")
		if mcode != http.StatusOK || ccode != http.StatusOK {
			t.Fatalf("parallel=%d: /metrics %d, /campaigns %d", parallel, mcode, ccode)
		}
		return metrics, campaigns
	}
	m1, c1 := fetch(1)
	m8, c8 := fetch(8)
	if m1 != m8 {
		t.Errorf("/metrics differs between parallel=1 and parallel=8:\n--- p1\n%s--- p8\n%s", m1, m8)
	}
	if c1 != c8 {
		t.Errorf("/campaigns differs between parallel=1 and parallel=8:\n--- p1\n%s--- p8\n%s", c1, c8)
	}
	if !strings.Contains(m1, "tracenet_campaign_workers_inflight 0") {
		t.Errorf("/metrics lacks the settled in-flight gauge:\n%s", m1)
	}
	if !strings.Contains(m1, "tracenet_campaign_stalls_total 0") {
		t.Errorf("/metrics lacks the stall counter family:\n%s", m1)
	}
	for _, want := range []string{`"name": "campaign"`, `"finished": true`, `"wire_probes"`, `"cache_hit_rate"`} {
		if !strings.Contains(c1, want) {
			t.Errorf("/campaigns lacks %s:\n%s", want, c1)
		}
	}
	if strings.Contains(c1, `"workers"`) {
		t.Errorf("/campaigns of a finished campaign must omit per-worker state:\n%s", c1)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	oc := runObsCampaign(t, 4, nil)

	code, body := get(t, oc.ts.URL, "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok tick=") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, oc.ts.URL, "/readyz")
	if code != http.StatusOK {
		t.Errorf("/readyz = %d on a healthy finished campaign:\n%s", code, body)
	}
	for _, want := range []string{"ok probe-budget", "ok breaker-storm", "ok campaign-stall", "ready"} {
		if !strings.Contains(body, want) {
			t.Errorf("/readyz lacks %q:\n%s", want, body)
		}
	}

	red := []obs.Check{{Name: "always-red", Probe: func() error { return errors.New("boom") }}}
	oc.srv.AddCheckSource(func() []obs.Check { return red })
	code, body = get(t, oc.ts.URL, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with a failing check, want 503", code)
	}
	if !strings.Contains(body, "fail always-red: boom") || !strings.Contains(body, "not ready") {
		t.Errorf("/readyz body lacks the failure:\n%s", body)
	}
}

// BudgetCheck must trip while the campaign is live with its budget spent; a
// finished campaign reports healthy again. The mid-run observation rides the
// OnTargetDone callback, the only schedule-safe hook into a running campaign.
func TestBudgetCheckTripsMidRun(t *testing.T) {
	var mu sync.Mutex
	var sawExhausted bool
	prog := collect.NewProgress()
	check := obs.BudgetCheck(prog)
	runObsCampaignWithProgress(t, prog, func(cfg *collect.Config) {
		cfg.Budget = 40 // enough to start, far too little to finish
		cfg.OnTargetDone = func(collect.TargetResult) {
			if check.Probe() != nil {
				mu.Lock()
				sawExhausted = true
				mu.Unlock()
			}
		}
	})
	if !sawExhausted {
		t.Error("BudgetCheck never failed during a budget-starved campaign")
	}
	if err := check.Probe(); err != nil {
		t.Errorf("BudgetCheck still failing after the campaign finished: %v", err)
	}
}

// runObsCampaignWithProgress is runObsCampaign with a caller-owned Progress
// (so checks can be built before the run starts).
func runObsCampaignWithProgress(t *testing.T, prog *collect.Progress, mutate func(*collect.Config)) {
	t.Helper()
	tp, targets := topo.Random(topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2})
	n := netsim.New(tp, netsim.Config{Seed: 7})
	cfg := collect.Config{
		Targets:  targets,
		Parallel: 4,
		Probe:    probe.Options{Cache: true},
		Progress: prog,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := collect.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStallCheckTripsMidRun(t *testing.T) {
	prog := collect.NewProgress()
	clock := &telemetry.ManualClock{}
	wd := collect.NewWatchdog(prog, nil, 10, "")
	check := obs.StallCheck(wd, clock)
	var mu sync.Mutex
	var tripped, healthyEarly bool
	runObsCampaignWithProgress(t, prog, func(cfg *collect.Config) {
		cfg.OnTargetDone = func(collect.TargetResult) {
			mu.Lock()
			defer mu.Unlock()
			if tripped {
				return
			}
			// With the manual clock at the last-activity tick the campaign is
			// fresh; jumping it far past the window must read as a stall.
			clock.Advance(prog.LastActivityTick() - clock.Ticks())
			if check.Probe() == nil {
				healthyEarly = true
			}
			clock.Advance(1 << 20)
			if check.Probe() != nil {
				tripped = true
			}
		}
	})
	if !healthyEarly {
		t.Error("StallCheck failed while activity was fresh")
	}
	if !tripped {
		t.Error("StallCheck never tripped a silent window mid-run")
	}
	if err := check.Probe(); err != nil {
		t.Errorf("StallCheck still failing after the campaign finished: %v", err)
	}
}

func TestLogzEndpoint(t *testing.T) {
	lg := obs.NewLogger(nil, nil, obs.LevelDebug, 0)
	lg.Debug("noisy detail")
	lg.Info("target done", "dst", "10.0.3.7")
	lg.Warn("probe exchange failed", "err", "decode")
	srv := obs.NewServer(nil, lg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL, "/logz")
	if code != http.StatusOK || strings.Count(body, "\n") != 3 {
		t.Errorf("/logz = %d with %d lines:\n%s", code, strings.Count(body, "\n"), body)
	}
	code, body = get(t, ts.URL, "/logz?level=warn&n=5")
	if code != http.StatusOK || strings.Count(body, "\n") != 1 || !strings.Contains(body, "decode") {
		t.Errorf("/logz?level=warn = %d:\n%s", code, body)
	}
	if code, _ = get(t, ts.URL, "/logz?n=zero"); code != http.StatusBadRequest {
		t.Errorf("/logz?n=zero = %d, want 400", code)
	}
	if code, _ = get(t, ts.URL, "/logz?level=loud"); code != http.StatusBadRequest {
		t.Errorf("/logz?level=loud = %d, want 400", code)
	}
}

func TestFlightzSnapshot(t *testing.T) {
	oc := runObsCampaign(t, 2, nil)
	code, body := get(t, oc.ts.URL, "/flightz")
	if code != http.StatusOK {
		t.Fatalf("/flightz = %d", code)
	}
	if !strings.Contains(body, "== flight recorder snapshot at tick") ||
		!strings.Contains(body, "events retained") {
		t.Errorf("/flightz body malformed:\n%s", body)
	}
}

func TestServerWithoutTelemetry(t *testing.T) {
	srv := obs.NewServer(nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL, "/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics without telemetry = %d, want 503", code)
	}
	if code, _ := get(t, ts.URL, "/metrics.json"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics.json without telemetry = %d, want 503", code)
	}
	if code, body := get(t, ts.URL, "/healthz"); code != http.StatusOK || body != "ok tick=0\n" {
		t.Errorf("/healthz without telemetry = %d %q", code, body)
	}
	if code, body := get(t, ts.URL, "/logz"); code != http.StatusOK || !strings.Contains(body, "disabled") {
		t.Errorf("/logz without logger = %d %q", code, body)
	}
	if code, body := get(t, ts.URL, "/flightz"); code != http.StatusOK || !strings.Contains(body, "not armed") {
		t.Errorf("/flightz without recorder = %d %q", code, body)
	}
	if code, body := get(t, ts.URL, "/"); code != http.StatusOK || !strings.Contains(body, "/campaigns") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestPprofMounted(t *testing.T) {
	srv := obs.NewServer(nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d:\n%.200s", code, body)
	}
}

// The Start/Shutdown lifecycle must bind a real port and serve the same mux.
func TestServerStartShutdown(t *testing.T) {
	lg := obs.NewLogger(nil, nil, obs.LevelInfo, 0)
	srv := obs.NewServer(nil, lg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, fmt.Sprintf("http://%s", addr), "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok tick=") {
		t.Errorf("live /healthz = %d %q", code, body)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// Hammer every endpoint while an 8-worker campaign runs — the race-detector
// gate for serving live state.
func TestServeDuringLiveCampaign(t *testing.T) {
	tp, targets := topo.Random(topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2})
	n := netsim.New(tp, netsim.Config{Seed: 7})
	tel := telemetry.New(n)
	tel.Recorder = telemetry.NewFlightRecorder(64)
	n.SetTelemetry(tel)

	prog := collect.NewProgress()
	lg := obs.NewLogger(n, nil, obs.LevelDebug, 0)
	wd := collect.NewWatchdog(prog, tel, 0, "")
	srv := obs.NewServer(tel, lg)
	srv.AddCampaignSource(func() []obs.CampaignEntry { return []obs.CampaignEntry{{Name: "campaign", Prog: prog}} })
	checks := []obs.Check{obs.BudgetCheck(prog), obs.StallCheck(wd, n)}
	srv.AddCheckSource(func() []obs.Check { return checks })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		defer close(polled)
		count := 0
		for {
			select {
			case <-done:
				polled <- count
				return
			default:
			}
			for _, path := range []string{"/metrics", "/campaigns", "/readyz", "/logz", "/flightz"} {
				if code, _ := get(t, ts.URL, path); code != http.StatusOK {
					t.Errorf("GET %s = %d during live campaign", path, code)
				}
			}
			count++
		}
	}()

	cfg := collect.Config{
		Targets:   targets,
		Parallel:  8,
		Probe:     probe.Options{Cache: true},
		Telemetry: tel,
		Progress:  prog,
		OnTargetDone: func(collect.TargetResult) {
			lg.Info("target done")
		},
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}
	if _, err := collect.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	close(done)
	if n := <-polled; n == 0 {
		t.Error("poller never completed a sweep during the campaign")
	}
}
