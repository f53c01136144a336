package main

// Tests for the live observability plane flags: -serve, -progress,
// -stall-window, -log-level, and the signal-triggered snapshot-and-drain.
// Real signals are replaced by the options.shutdown test hook, and the bound
// address is observed through options.onServe.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func httpGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// waitCampaignFinished polls /campaigns until the registered campaign reports
// finished (the plane keeps serving after the run's work completes, so the
// poll always converges unless the campaign itself hangs).
func waitCampaignFinished(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := httpGet(t, base, "/campaigns")
		if code == http.StatusOK && strings.Contains(body, `"finished": true`) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign never reported finished on /campaigns")
}

// serveRun launches run in the background with the serve hooks installed and
// returns the plane's base URL plus channels to finish the run.
func serveRun(t *testing.T, b *strings.Builder, o options) (base string, shutdown chan struct{}, done chan error) {
	t.Helper()
	shutdown = make(chan struct{})
	addrCh := make(chan string, 1)
	o.serve = ":0"
	o.shutdown = shutdown
	o.onServe = func(a string) { addrCh <- a }
	done = make(chan error, 1)
	go func() { done <- run(b, o) }()
	select {
	case a := <-addrCh:
		return "http://" + a, shutdown, done
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
		return "", nil, nil
	}
}

func TestRunServeCampaignLiveEndpoints(t *testing.T) {
	var b strings.Builder
	base, shutdown, done := serveRun(t, &b, options{
		topo: "random", proto: "icmp", maxTTL: 30, seed: 3, parallel: 4,
	})
	waitCampaignFinished(t, base)

	for _, path := range []string{"/", "/metrics", "/metrics.json", "/healthz",
		"/readyz", "/logz", "/campaigns", "/flightz", "/debug/pprof/"} {
		if code, _ := httpGet(t, base, path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
	if _, body := httpGet(t, base, "/metrics"); !strings.Contains(body, "tracenet_campaign_workers_inflight 0") {
		t.Errorf("/metrics lacks the settled in-flight gauge:\n%s", body)
	}
	if _, body := httpGet(t, base, "/readyz"); !strings.Contains(body, "ready") || strings.Contains(body, "fail ") {
		t.Errorf("/readyz not clean after a completed campaign:\n%s", body)
	}
	if _, body := httpGet(t, base, "/logz"); !strings.Contains(body, `"msg":"target done"`) {
		t.Errorf("/logz lacks target-done records:\n%s", body)
	}
	if _, body := httpGet(t, base, "/flightz"); !strings.Contains(body, "flight recorder snapshot") {
		t.Errorf("/flightz is not a recorder snapshot:\n%s", body)
	}

	close(shutdown)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"observability plane on http://",
		"observability plane serving", "merged subnet map"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunServeSingleSession(t *testing.T) {
	var b strings.Builder
	base, shutdown, done := serveRun(t, &b, options{
		topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, dests: []string{"10.0.5.2"},
	})
	if code, body := httpGet(t, base, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok tick=") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	waitCampaignFinished(t, base)
	if _, body := httpGet(t, base, "/campaigns"); strings.Count(body, `"name"`) != 1 || !strings.Contains(body, `"targets": 1,`) {
		t.Errorf("single-destination run should publish one finished one-target campaign:\n%s", body)
	}
	close(shutdown)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "probes sent") {
		t.Errorf("trace did not run to completion:\n%s", b.String())
	}
}

// The drain path (SIGTERM stand-in) must write byte-identical telemetry
// artifacts to a clean exit of the same run.
func TestRunServeDrainMatchesCleanExitArtifacts(t *testing.T) {
	artifacts := func(serve bool) map[string]string {
		t.Helper()
		dir := t.TempDir()
		o := options{topo: "random", proto: "icmp", maxTTL: 30, seed: 3, parallel: 1,
			metricsOut: filepath.Join(dir, "metrics.txt"),
			traceOut:   filepath.Join(dir, "trace.json"),
			flightOut:  filepath.Join(dir, "flight.txt")}
		var b strings.Builder
		if serve {
			base, shutdown, done := serveRun(t, &b, o)
			waitCampaignFinished(t, base)
			close(shutdown)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		} else if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		arts := make(map[string]string)
		for _, name := range []string{"metrics.txt", "trace.json", "flight.txt"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			arts[name] = string(data)
		}
		return arts
	}
	clean, drained := artifacts(false), artifacts(true)
	for name, want := range clean {
		if drained[name] != want {
			t.Errorf("%s differs between clean exit and signal drain:\n--- clean\n%s--- drained\n%s",
				name, want, drained[name])
		}
	}
}

// -progress counts completions locally, so the printed stream is identical at
// any parallelism even though which target finishes at each step is not.
func TestRunProgressDeterministicAcrossParallel(t *testing.T) {
	progressRun := func(parallel int) string {
		t.Helper()
		var b strings.Builder
		o := options{topo: "random", proto: "icmp", maxTTL: 30, seed: 3, progress: true, parallel: parallel}
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	p1, p8 := progressRun(1), progressRun(8)
	if p1 != p8 {
		t.Errorf("-progress output differs between -parallel 1 and -parallel 8:\n--- p1\n%s--- p8\n%s", p1, p8)
	}

	lines := regexp.MustCompile(`progress: (\d+)/(\d+) targets`).FindAllStringSubmatch(p1, -1)
	if len(lines) == 0 {
		t.Fatalf("-progress printed no progress lines:\n%s", p1)
	}
	total := lines[0][2]
	if got := fmt.Sprintf("%d", len(lines)); got != total {
		t.Errorf("printed %d progress lines for %s targets", len(lines), total)
	}
	if last := lines[len(lines)-1]; last[1] != last[2] {
		t.Errorf("final progress line %q does not account for every target", last[0])
	}
}

func TestRunBadLogLevel(t *testing.T) {
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		debug: true, logLevel: "loud", dests: []string{"10.0.5.2"}}
	if err := run(&b, o); err == nil || !strings.Contains(err.Error(), "level") {
		t.Errorf("bad -log-level accepted: %v", err)
	}
}

// Every armed flight-recorder artifact ends with the final snapshot, whether
// or not any incident fired during the run.
func TestRunFlightFinalSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight.txt")
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		flightOut: out, dests: []string{"10.0.5.2"}}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "flight recorder snapshot at tick") ||
		!strings.Contains(string(data), "end of run") {
		t.Errorf("flight artifact lacks the final snapshot:\n%s", data)
	}
	if strings.Contains(string(data), "flight recorder dump #") {
		t.Errorf("clean run recorded an incident dump:\n%s", data)
	}
}
