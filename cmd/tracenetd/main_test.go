package main

// End-to-end tests of the tracenetd command: the HTTP lifecycle of a
// submitted campaign, the tenant policy file, and the signal-triggered
// drain-and-restart. Real signals are replaced by the options.shutdown test
// hook, and the bound address is observed through options.onServe. These are
// command tests (outside the determinism lint scope), so wall-clock polling
// with generous deadlines is acceptable here.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// serveDaemon launches run in the background and returns the base URL plus
// the channels to drain it, once /readyz reports the spool replayed: the
// listener opens before replay, and a submission racing it gets 503.
func serveDaemon(t *testing.T, b *strings.Builder, o options) (base string, shutdown chan struct{}, done chan error) {
	t.Helper()
	shutdown = make(chan struct{})
	addrCh := make(chan string, 1)
	o.serve = "127.0.0.1:0"
	o.shutdown = shutdown
	o.onServe = func(a string) { addrCh <- a }
	done = make(chan error, 1)
	go func() { done <- run(b, o) }()
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
		return "", nil, nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _ := httpDo(t, "GET", base+"/readyz", ""); code == http.StatusOK {
			return base, shutdown, done
		}
		if time.Now().After(deadline) {
			t.Fatal("tracenetd never reported ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitStatus polls one campaign's status document until it reaches one of
// the wanted statuses, and reports which. Callers racing a fast campaign
// pass both the transient and the final status ("running", "done").
func waitStatus(t *testing.T, base, id string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := httpDo(t, "GET", base+"/api/v1/campaigns/"+id, "")
		var doc struct {
			Status string `json:"status"`
		}
		if code == http.StatusOK && json.Unmarshal([]byte(body), &doc) == nil {
			for _, w := range want {
				if doc.Status == w {
					return doc.Status
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached status %s", id, strings.Join(want, " or "))
	return ""
}

func drain(t *testing.T, shutdown chan struct{}, done chan error) {
	t.Helper()
	close(shutdown)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain")
	}
}

func TestDaemonSubmitPollFetch(t *testing.T) {
	spool := t.TempDir()
	var b strings.Builder
	base, shutdown, done := serveDaemon(t, &b, options{spool: spool})

	code, body := httpDo(t, "POST", base+"/api/v1/campaigns",
		`{"tenant": "alice", "topology": "figure3", "eval": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, base, acc.ID, "done")

	if code, body := httpDo(t, "GET", base+"/api/v1/campaigns/"+acc.ID+"/report", ""); code != http.StatusOK ||
		!strings.Contains(body, "campaign "+acc.ID+" tenant alice") {
		t.Errorf("report: %d %q", code, body)
	}
	if code, _ := httpDo(t, "GET", base+"/api/v1/campaigns/"+acc.ID+"/eval", ""); code != http.StatusOK {
		t.Errorf("eval: status %d", code)
	}
	if code, body := httpDo(t, "GET", base+"/metrics", ""); code != http.StatusOK ||
		!strings.Contains(body, "tracenet_daemon_campaigns_total") {
		t.Errorf("/metrics missing daemon families: %d", code)
	}

	drain(t, shutdown, done)
	if !strings.Contains(b.String(), "tracenetd on http://") {
		t.Errorf("missing banner in output: %q", b.String())
	}
}

// TestDaemonDrainRestartResume: the command-level half of the PR's
// acceptance criterion — drain mid-run via the shutdown hook (the SIGTERM
// path), restart against the same spool, and observe the campaign finish
// with a readable report.
func TestDaemonDrainRestartResume(t *testing.T) {
	spool := t.TempDir()
	var b strings.Builder
	base, shutdown, done := serveDaemon(t, &b, options{spool: spool})

	code, body := httpDo(t, "POST", base+"/api/v1/campaigns",
		`{"tenant": "alice", "topology": "internet2", "parallel": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	// On a fast box the whole campaign can complete between two polls, so
	// accept "done" as well — the spool check below tolerates both outcomes.
	waitStatus(t, base, "c0001", "running", "done")
	drain(t, shutdown, done)

	st, err := os.ReadFile(filepath.Join(spool, "c0001.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(st, &doc); err != nil {
		t.Fatal(err)
	}
	// Almost always the drain catches the campaign mid-run; on a very fast
	// box it may have finished between the status poll and the drain.
	if doc.Status != "interrupted" && doc.Status != "done" {
		t.Fatalf("after drain, spool state = %s, want interrupted or done", doc.Status)
	}

	var b2 strings.Builder
	base2, shutdown2, done2 := serveDaemon(t, &b2, options{spool: spool})
	waitStatus(t, base2, "c0001", "done")
	if code, body := httpDo(t, "GET", base2+"/api/v1/campaigns/c0001/report", ""); code != http.StatusOK ||
		!strings.Contains(body, "campaign c0001 tenant alice") {
		t.Errorf("resumed report: %d %q", code, body)
	}
	drain(t, shutdown2, done2)
}

func TestDaemonTenantPolicyFile(t *testing.T) {
	dir := t.TempDir()
	policy := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(policy, []byte(
		`[{"name": "alice", "probe_budget": 10}, {"name": "*", "max_concurrent": 4}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	base, shutdown, done := serveDaemon(t, &b, options{spool: t.TempDir(), tenants: policy})

	code, body := httpDo(t, "POST", base+"/api/v1/campaigns", `{"tenant": "alice", "topology": "figure3"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	waitStatus(t, base, "c0001", "done")
	// The 10-probe budget is spent by the first campaign; the next submission
	// is refused.
	if code, body := httpDo(t, "POST", base+"/api/v1/campaigns", `{"tenant": "alice", "topology": "figure3"}`); code != http.StatusTooManyRequests {
		t.Errorf("submit on spent budget: %d %s, want 429", code, body)
	}
	drain(t, shutdown, done)
}

func TestRunFlagErrors(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{}); err == nil || !strings.Contains(err.Error(), "-spool") {
		t.Errorf("missing -spool: err = %v", err)
	}
	if err := run(&b, options{spool: t.TempDir(), logLevel: "loud"}); err == nil {
		t.Error("bad -log-level accepted")
	}
	bad := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(bad, []byte(`[{"probe_budget": 5}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, options{spool: t.TempDir(), tenants: bad}); err == nil ||
		!strings.Contains(err.Error(), "without a name") {
		t.Errorf("nameless tenant accepted: err = %v", err)
	}
}
