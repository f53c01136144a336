package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/obs"
)

// The daemon tests are in-package on purpose: internal/daemon is inside the
// determinism lint scope, so its tests may not import the time package. All
// waiting is done on channels fed by the test hooks (testTargetDone,
// testCampaignFinished) — never by polling a clock.

// atomicClock is a race-safe manual scheduler clock for freshness tests
// (telemetry.ManualClock is deliberately unsynchronized).
type atomicClock struct{ v atomic.Uint64 }

func (c *atomicClock) Ticks() uint64 { return c.v.Load() }

// harness is one live daemon with its HTTP front end and a channel of
// finished-campaign events.
type harness struct {
	d   *Daemon
	url string
	fin chan finEvent
}

type finEvent struct{ id, status string }

// startDaemon builds a daemon over dir, applies mod (for test hooks) before
// Start, then mounts the API on an httptest server.
func startDaemon(t *testing.T, dir string, cfg Config, mod func(*Daemon)) *harness {
	t.Helper()
	cfg.Spool = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fin := make(chan finEvent, 64)
	d.testCampaignFinished = func(id, status string) { fin <- finEvent{id, status} }
	if mod != nil {
		mod(d)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(d.Telemetry(), nil)
	d.Attach(osrv)
	ts := httptest.NewServer(osrv.Handler())
	t.Cleanup(ts.Close)
	return &harness{d: d, url: ts.URL, fin: fin}
}

// submit POSTs the spec and returns the assigned campaign ID.
func (h *harness) submit(t *testing.T, sp *Spec) string {
	t.Helper()
	code, body := h.do(t, "POST", "/api/v1/campaigns", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

// do issues one API request; a non-nil spec becomes the JSON body.
func (h *harness) do(t *testing.T, method, path string, sp *Spec) (int, []byte) {
	t.Helper()
	var body io.Reader
	if sp != nil {
		var buf bytes.Buffer
		if err := WriteSpec(&buf, sp); err != nil {
			t.Fatal(err)
		}
		body = &buf
	}
	req, err := http.NewRequest(method, h.url+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// await blocks until every listed campaign has reached a final state,
// returning each campaign's final status.
func (h *harness) await(t *testing.T, ids ...string) map[string]string {
	t.Helper()
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	got := map[string]string{}
	for len(got) < len(ids) {
		ev := <-h.fin
		if want[ev.id] {
			got[ev.id] = ev.status
		}
	}
	return got
}

// firstTargets renders the first n destination addresses of a built-in
// scenario, for specs that pin explicit targets.
func firstTargets(t *testing.T, topology string, seed int64, n int) []string {
	t.Helper()
	sc, err := cli.Load(topology, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Destinations) < n {
		t.Fatalf("scenario %s has %d destinations, want >= %d", topology, len(sc.Destinations), n)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = sc.Destinations[i].String()
	}
	return out
}

// TestDaemonLifecycleResumeByteIdentity is the crash-resume acceptance
// test: a daemon drained (the SIGTERM path) mid-campaign and restarted
// against the same spool produces final artifacts — report, eval and
// checkpoint — byte-identical to an uninterrupted control run, for both the
// interrupted campaign and the one that was still queued behind it. The
// random seed 4 case grows two identical subnets at different hop contexts,
// which a resume must keep apart.
func TestDaemonLifecycleResumeByteIdentity(t *testing.T) {
	bob := &Spec{Tenant: "bob", Topology: "figure3", Eval: true}
	for _, tc := range []struct {
		name  string
		first *Spec
		cut   int // drain once this many of the first campaign's targets are done
	}{
		{"random42-p2", &Spec{Tenant: "alice", Topology: "random", Seed: 42,
			Targets: firstTargets(t, "random", 42, 6), Parallel: 2}, 2},
		{"random4-p1", &Spec{Tenant: "carol", Topology: "random", Seed: 4, Parallel: 1, Eval: true}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			artifacts := func(h *harness, id string) map[string][]byte {
				out := map[string][]byte{}
				for _, a := range []string{"report", "eval", "checkpoint"} {
					code, body := h.do(t, "GET", "/api/v1/campaigns/"+id+"/"+a, nil)
					if code == http.StatusOK {
						out[a] = body
					} else if a == "report" || a == "checkpoint" {
						t.Fatalf("%s %s fetch: status %d", id, a, code)
					}
				}
				return out
			}

			// Control: uninterrupted run of both campaigns.
			control := startDaemon(t, t.TempDir(), Config{}, nil)
			a := control.submit(t, tc.first)
			b := control.submit(t, bob)
			if a != "c0001" || b != "c0002" {
				t.Fatalf("assigned ids %s, %s", a, b)
			}
			st := control.await(t, a, b)
			if st[a] != stateDone || st[b] != stateDone {
				t.Fatalf("control outcomes: %v", st)
			}
			want := map[string]map[string][]byte{a: artifacts(control, a), b: artifacts(control, b)}

			// Interrupted run: block the first campaign's workers once cut
			// targets are done, then drain — the daemon-side half of a
			// SIGTERM.
			dir := t.TempDir()
			hit := make(chan struct{})
			hold := make(chan struct{})
			var once sync.Once
			h2 := startDaemon(t, dir, Config{}, func(d *Daemon) {
				d.testTargetDone = func(id string, done int) {
					if id != "c0001" || done < tc.cut {
						return
					}
					once.Do(func() { close(hit) })
					<-hold
				}
			})
			if id := h2.submit(t, tc.first); id != "c0001" {
				t.Fatalf("assigned id %s", id)
			}
			if id := h2.submit(t, bob); id != "c0002" {
				t.Fatalf("assigned id %s", id)
			}
			<-hit
			drained := make(chan error, 1)
			go func() { drained <- h2.d.Drain(context.Background()) }()
			// Drain cancels the running campaign's context before waiting;
			// release the blocked workers once the cancellation is
			// observable.
			cs := h2.d.campaign("c0001")
			h2.d.mu.Lock()
			cctx := cs.ctx
			h2.d.mu.Unlock()
			<-cctx.Done()
			close(hold)
			if err := <-drained; err != nil {
				t.Fatal(err)
			}

			var persisted State
			if err := (spool{dir: dir}).readJSON("c0001.state.json", &persisted); err != nil {
				t.Fatal(err)
			}
			if persisted.Status != stateInterrupted {
				t.Fatalf("after drain, c0001 state = %s, want interrupted", persisted.Status)
			}
			journal, err := (spool{dir: dir}).readCheckpoint("c0001.checkpoint.json")
			if err != nil {
				t.Fatal(err)
			}
			if len(journal.Rows) < tc.cut {
				t.Fatalf("interrupted campaign journaled %d rows, want at least %d", len(journal.Rows), tc.cut)
			}
			if bytes.Equal(mustCheckpointBytes(t, journal), want[a]["checkpoint"]) {
				t.Fatal("interrupt left no work to resume")
			}

			// Restart against the same spool: the interrupted campaign
			// resumes from its checkpoint, the queued one runs for the first
			// time.
			h3 := startDaemon(t, dir, Config{}, nil)
			if got := h3.d.cReplayed.Value(); got != 2 {
				t.Fatalf("spool replayed %d campaigns, want 2", got)
			}
			st = h3.await(t, "c0001", "c0002")
			if st["c0001"] != stateDone || st["c0002"] != stateDone {
				t.Fatalf("resumed outcomes: %v", st)
			}
			for _, id := range []string{a, b} {
				got := artifacts(h3, id)
				for name, w := range want[id] {
					if !bytes.Equal(got[name], w) {
						t.Errorf("%s %s differs from control:\n--- control\n%s\n--- resumed\n%s", id, name, w, got[name])
					}
				}
				if len(got) != len(want[id]) {
					t.Errorf("%s served artifacts %d, control %d", id, len(got), len(want[id]))
				}
			}
		})
	}
}

// mustCheckpointBytes encodes cp as the spool journals it.
func mustCheckpointBytes(t *testing.T, cp *collect.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := collect.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRescanFreshness: a completed campaign with a rescan interval enrolls
// its next generation behind a freshness deadline on the scheduler clock,
// and the scheduler holds it until the deadline passes.
func TestRescanFreshness(t *testing.T) {
	clk := &atomicClock{}
	h := startDaemon(t, t.TempDir(), Config{Clock: clk}, nil)
	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3", RescanInterval: 100, MaxRescans: 1})
	if st := h.await(t, id); st[id] != stateDone {
		t.Fatalf("outcome: %v", st)
	}

	rescan := id + ".r1"
	doc, err := h.d.Status(rescan)
	if err != nil {
		t.Fatalf("rescan not enrolled: %v", err)
	}
	if doc.Status != stateQueued || doc.NotBefore != 100 {
		t.Fatalf("rescan doc = %+v, want queued at tick 100", doc)
	}

	clk.v.Store(150)
	h.d.Nudge()
	if st := h.await(t, rescan); st[rescan] != stateDone {
		t.Fatalf("rescan outcome: %v", st)
	}
	if got := h.d.cRescans.Value(); got != 1 {
		t.Fatalf("rescans_total = %d, want 1 (max_rescans honoured)", got)
	}
	if _, err := h.d.Status(id + ".r2"); err == nil {
		t.Fatal("a second rescan generation was enrolled past max_rescans")
	}
}

// TestAPIErrors covers the API's error mapping: 400 for a bad spec, 404 for
// unknown campaigns and missing artifacts, 409 for cancelling a final
// campaign, 503 before the daemon starts.
func TestAPIErrors(t *testing.T) {
	h := startDaemon(t, t.TempDir(), Config{}, nil)

	if code, _ := h.do(t, "POST", "/api/v1/campaigns", &Spec{}); code != http.StatusBadRequest {
		t.Errorf("invalid spec: status %d, want 400", code)
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed body", "{not json", http.StatusBadRequest},
		{"trailing data", `{"tenant":"a","topology":"figure3"} {"tenant":"evil"} garbage`, http.StatusBadRequest},
		{"oversized body", `{"tenant":"a","targets":[` + strings.Repeat(`"10.0.5.2",`, 2<<20/11) + `"10.0.5.2"]}`,
			http.StatusRequestEntityTooLarge},
		{"retired greedy key", `{"tenant":"a","greedy":true}`, http.StatusBadRequest},
		{"oversized spool form", `{"tenant":"a","name":"` + strings.Repeat("<", 1<<20/5) + `"}`,
			http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(h.url+"/api/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if code, _ := h.do(t, "GET", "/api/v1/campaigns/c9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
	if code, _ := h.do(t, "DELETE", "/api/v1/campaigns/c9999", nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown: status %d, want 404", code)
	}

	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3"})
	h.await(t, id)
	if code, _ := h.do(t, "DELETE", "/api/v1/campaigns/"+id, nil); code != http.StatusConflict {
		t.Errorf("cancel final: status %d, want 409", code)
	}
	if code, _ := h.do(t, "GET", "/api/v1/campaigns/"+id+"/eval", nil); code != http.StatusNotFound {
		t.Errorf("absent artifact: status %d, want 404", code)
	}

	// A daemon that has not started (or is draining) refuses submissions.
	cold, err := New(Config{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(cold.Telemetry(), nil)
	cold.Attach(osrv)
	ts := httptest.NewServer(osrv.Handler())
	defer ts.Close()
	var buf bytes.Buffer
	if err := WriteSpec(&buf, &Spec{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit before start: status %d, want 503", resp.StatusCode)
	}
}

// TestFinishedCampaignsReleaseMemory: a finished campaign keeps its status
// document and final progress snapshot, not its network, shared cache or
// collected subnets, so the heap grows by a small bounded amount for every
// campaign the daemon has ever run.
func TestFinishedCampaignsReleaseMemory(t *testing.T) {
	const campaigns = 40
	const maxPerCampaign = 32 << 10
	h := startDaemon(t, t.TempDir(), Config{Concurrent: 2}, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	ids := make([]string, campaigns)
	for i := range ids {
		sp := &Spec{Tenant: "alice", Topology: "random", Seed: int64(i + 1)}
		if i%10 == 9 {
			sp.Chaos, sp.Defend, sp.Backoff, sp.Eval = int64(i+1), true, true, true
		}
		ids[i] = h.submit(t, sp)
	}
	for id, st := range h.await(t, ids...) {
		if st != stateDone {
			t.Fatalf("campaign %s finished %s, want done", id, st)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / campaigns; per >= maxPerCampaign {
		t.Errorf("heap grew %d bytes per finished campaign, want < %d", per, maxPerCampaign)
	}
	for _, id := range ids {
		doc, err := h.d.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Progress == nil || !doc.Progress.Finished {
			t.Errorf("campaign %s status lost its final snapshot: %+v", id, doc.Progress)
		}
	}
}

// TestReadinessLifecycle: /readyz tracks the daemon lifecycle — failing
// before start and during spool replay, passing while serving, and failing
// again once draining.
func TestReadinessLifecycle(t *testing.T) {
	d, err := New(Config{Spool: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(d.Telemetry(), nil)
	d.Attach(osrv)
	ts := httptest.NewServer(osrv.Handler())
	defer ts.Close()

	readyz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "scheduler") {
		t.Errorf("before start: %d %q, want 503 mentioning scheduler", code, body)
	}

	// White-box: hold the daemon in its replaying state to observe the
	// spool-replay readiness gate (the window is otherwise too brief).
	d.mu.Lock()
	d.replaying = true
	d.mu.Unlock()
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "spool-replay") {
		t.Errorf("during replay: %d %q, want 503 mentioning spool-replay", code, body)
	}
	d.mu.Lock()
	d.replaying = false
	d.mu.Unlock()

	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if code, _ := readyz(); code != http.StatusOK {
		t.Errorf("while serving: status %d, want 200", code)
	}

	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("after drain: %d %q, want 503 mentioning draining", code, body)
	}
}

// TestReplayRejectsCorruptSpool: Start trusts nothing it reads back from the
// spool. A hand-corrupted file — a spec POST would refuse, an undecodable
// state, a retired checkpoint version, a checkpoint that decodes but does
// not validate — fails Start with ErrCorruptSpool naming the file (and, for
// a checkpoint, the fault), instead of running something the API never
// admitted.
func TestReplayRejectsCorruptSpool(t *testing.T) {
	const queued = `{"id": "c0001", "seq": 1, "tenant": "alice", "status": "queued"}`
	const interrupted = `{"id": "c0001", "seq": 1, "tenant": "alice", "status": "interrupted"}`
	const good = `{"tenant": "alice", "topology": "figure3"}`
	checkpoint := func(body string) map[string]string {
		return map[string]string{"c0001.state.json": interrupted, "c0001.spec.json": good, "c0001.checkpoint.json": body}
	}
	cases := []struct {
		name  string
		files map[string]string
		bad   string // the file the error must name
		fault string // what the error must say is wrong with it, if set
	}{
		{"unknown protocol", map[string]string{
			"c0001.state.json": queued, "c0001.spec.json": `{"tenant": "alice", "proto": "xyz"}`}, "c0001.spec.json", ""},
		{"file topology", map[string]string{
			"c0001.state.json": queued, "c0001.spec.json": `{"tenant": "alice", "topology": "/etc/passwd"}`}, "c0001.spec.json", ""},
		{"unknown field", map[string]string{
			"c0001.state.json": queued, "c0001.spec.json": `{"tenant": "alice", "bogus_knob": 1}`}, "c0001.spec.json", ""},
		{"trailing data", map[string]string{
			"c0001.state.json": queued, "c0001.spec.json": good + "\n" + `{"tenant": "evil"}`}, "c0001.spec.json", ""},
		{"truncated spec", map[string]string{
			"c0001.state.json": queued, "c0001.spec.json": `{"tenant": "ali`}, "c0001.spec.json", ""},
		{"missing spec", map[string]string{"c0001.state.json": queued}, "c0001.spec.json", ""},
		{"truncated state", map[string]string{
			"c0001.state.json": `{"id": "c00`, "c0001.spec.json": good}, "c0001.state.json", ""},
		{"v1 checkpoint", checkpoint(`{"version": 1, "targets": ["10.0.5.2"], "done": ["10.0.5.2"]}`),
			"c0001.checkpoint.json", "version 1"},
		{"checkpoint subnet prefix", checkpoint(`{"version": 4, "subnets": [{"prefix": "nope", "pivot": "10.0.0.1"}]}`),
			"c0001.checkpoint.json", `invalid prefix "nope"`},
		{"checkpoint row destination", checkpoint(`{"version": 4, "rows": [{"dst": "x"}]}`),
			"c0001.checkpoint.json", `invalid address "x"`},
		{"checkpoint path index", checkpoint(`{"version": 4, "rows": [{"dst": "10.0.5.2",
			"path_addrs": [167772418], "path_subnets": [4], "path_marks": [2]}]}`),
			"c0001.checkpoint.json", "subnet index 4 outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sp := spool{dir: dir}
			for name, body := range tc.files {
				if err := sp.writeFile(name, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			d, err := New(Config{Spool: dir})
			if err != nil {
				t.Fatal(err)
			}
			err = d.Start()
			if !errors.Is(err, ErrCorruptSpool) || !strings.Contains(err.Error(), tc.bad) ||
				!strings.Contains(err.Error(), tc.fault) {
				t.Fatalf("Start = %v, want ErrCorruptSpool naming %s and %q", err, tc.bad, tc.fault)
			}
		})
	}
}
