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
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/obs"
)

// The daemon tests are in-package on purpose: internal/daemon is inside the
// determinism lint scope, so its tests may not import the time package.
// They wait for a campaign's "campaign finished" log record, which the
// daemon's logger hands to a logSink — never by polling a clock.

// logSink is the daemon logger's writer in the tests: it keeps the tick of
// each "campaign started" record and the status of each "campaign finished"
// record, and wakes await. The logger calls it under its lock, so Write
// never blocks.
type logSink struct {
	mu       sync.Mutex
	partial  []byte            // a line the logger has not finished writing
	started  map[string]uint64 // campaign → its "campaign started" tick
	finished map[string]string // campaign → its "campaign finished" status
	wake     chan struct{}     // capacity 1, so a wake-up is never lost
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.partial = append(s.partial, p...)
	for {
		line, rest, ok := bytes.Cut(s.partial, []byte("\n"))
		if !ok {
			break
		}
		var r struct {
			Tick                  uint64
			Msg, Campaign, Status string
		}
		if json.Unmarshal(line, &r) == nil {
			switch r.Msg {
			case "campaign started":
				s.started[r.Campaign] = r.Tick
			case "campaign finished":
				s.finished[r.Campaign] = r.Status
			}
		}
		s.partial = rest
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

// harness is one live daemon with its HTTP front end and its log sink.
type harness struct {
	d   *Daemon
	url string
	log *logSink
}

// startDaemon builds a daemon over dir, logging into a logSink, starts it,
// then mounts the API on an httptest server.
func startDaemon(t *testing.T, dir string, cfg Config) *harness {
	t.Helper()
	cfg.Spool = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &logSink{started: map[string]uint64{}, finished: map[string]string{}, wake: make(chan struct{}, 1)}
	d.SetLogger(obs.NewLogger(d.Clock(), sink, obs.LevelInfo, 0))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(d.Telemetry(), nil)
	d.Attach(osrv)
	ts := httptest.NewServer(osrv.Handler())
	t.Cleanup(ts.Close)
	return &harness{d: d, url: ts.URL, log: sink}
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

// await blocks until every listed campaign has logged "campaign finished",
// returning each campaign's final status.
func (h *harness) await(t *testing.T, ids ...string) map[string]string {
	t.Helper()
	for {
		got := make(map[string]string, len(ids))
		h.log.mu.Lock()
		for _, id := range ids {
			if st, ok := h.log.finished[id]; ok {
				got[id] = st
			}
		}
		h.log.mu.Unlock()
		if len(got) == len(ids) {
			return got
		}
		<-h.log.wake
	}
}

// TestRescanFreshness: a completed campaign with a rescan interval enrolls
// its next generation behind a freshness deadline on the scheduler clock.
// That clock is the campaigns' own virtual time, so an idle daemon moves it
// to the deadline and runs the rescan there: it starts exactly interval
// ticks after its parent finished, and no earlier.
func TestRescanFreshness(t *testing.T) {
	const interval = 100
	h := startDaemon(t, t.TempDir(), Config{})
	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3", RescanInterval: interval, MaxRescans: 1})
	rescan := id + ".r1"
	if st := h.await(t, id, rescan); st[id] != stateDone || st[rescan] != stateDone {
		t.Fatalf("outcomes: %v", st)
	}

	doc, err := h.d.Status(rescan)
	if err != nil {
		t.Fatal(err)
	}
	// Both generations run the same seeded campaign, so they span the same
	// ticks: the parent ends at span, the rescan runs from span+interval.
	span := doc.NotBefore - interval
	h.log.mu.Lock()
	started := h.log.started[rescan]
	h.log.mu.Unlock()
	if span == 0 || started != doc.NotBefore || h.d.Clock().Ticks() != doc.NotBefore+span {
		t.Fatalf("rescan due at tick %d started at tick %d, clock now %d; want a start at the deadline and a %d-tick run",
			doc.NotBefore, started, h.d.Clock().Ticks(), span)
	}
	if got := h.d.cRescans.Value(); got != 1 {
		t.Fatalf("rescans_total = %d, want 1 (max_rescans honoured)", got)
	}
	if _, err := h.d.Status(id + ".r2"); err == nil {
		t.Fatal("a second rescan generation was enrolled past max_rescans")
	}
}

// TestReplayResumesNonFinalRecords: replay queues every record that is not
// final and resumes it from its checkpoint, whatever status the record was
// left in. A campaign cut after five targets then spends on restart only
// the wire probes the cut did not (random seed 3: 677 of 850, the cut
// having spent 173).
func TestReplayResumesNonFinalRecords(t *testing.T) {
	sp := &Spec{Tenant: "alice", Topology: "random", Seed: 3}
	run := func(cut int) *collect.Report {
		c, err := sp.Resolve("c0001")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg, done := c.Config, 0
		cfg.OnTargetDone = func(collect.TargetResult) {
			if done++; done == cut {
				cancel()
			}
		}
		rep, err := collect.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full, cut := run(0).Stats.WireProbes, run(5)
	var checkpoint, spec bytes.Buffer
	if err := collect.WriteCheckpoint(&checkpoint, cut.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpec(&spec, sp); err != nil {
		t.Fatal(err)
	}

	for _, status := range []string{stateQueued, stateRunning, stateInterrupted} {
		t.Run(status, func(t *testing.T) {
			dir := t.TempDir()
			s := spool{dir: dir}
			if err := s.writeRecord(&record{ID: "c0001", Seq: 1, Tenant: "alice", Status: status, Spec: spec.Bytes()}); err != nil {
				t.Fatal(err)
			}
			if err := s.writeFile("c0001.checkpoint.json", checkpoint.Bytes()); err != nil {
				t.Fatal(err)
			}
			h := startDaemon(t, dir, Config{})
			if st := h.await(t, "c0001"); st["c0001"] != stateDone {
				t.Fatalf("outcome: %v", st)
			}
			doc, err := h.d.Status("c0001")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := doc.Progress.WireProbes, full-cut.Stats.WireProbes; got != want {
				t.Errorf("the resumed campaign spent %d wire probes, want %d (%d uninterrupted, %d before the cut)",
					got, want, full, cut.Stats.WireProbes)
			}
		})
	}
}

// TestAPIErrors covers the API's error mapping: 400 for a bad spec, 404 for
// unknown campaigns and missing artifacts, 409 for cancelling a final
// campaign, 503 before the daemon starts.
func TestAPIErrors(t *testing.T) {
	h := startDaemon(t, t.TempDir(), Config{})

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
	h := startDaemon(t, t.TempDir(), Config{Concurrent: 2})
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

// spoolRecord renders c0001's record (tenant alice) with the given status
// and spec.
func spoolRecord(status, spec string) string {
	return `{"id": "c0001", "seq": 1, "tenant": "alice", "status": "` + status + `", "spec": ` + spec + `}`
}

// goodSpec is a spec Submit accepts.
const goodSpec = `{"tenant": "alice", "topology": "figure3"}`

// corruptSpools are hand-corrupted one-campaign spools: a record, written
// as c0001.state.json, and its checkpoint when one is set. Each fails
// Start with ErrCorruptSpool naming the file bad and, when set, the fault.
var corruptSpools = []struct {
	name               string
	record, checkpoint string
	bad, fault         string
}{
	{name: "unknown protocol", record: spoolRecord("queued", `{"tenant": "alice", "proto": "xyz"}`),
		bad: "c0001.state.json", fault: `unknown protocol "xyz"`},
	{name: "file topology", record: spoolRecord("queued", `{"tenant": "alice", "topology": "/etc/passwd"}`),
		bad: "c0001.state.json", fault: "not a built-in generator"},
	{name: "unknown field", record: spoolRecord("queued", `{"tenant": "alice", "bogus_knob": 1}`),
		bad: "c0001.state.json", fault: "bogus_knob"},
	{name: "trailing data", record: spoolRecord("queued", goodSpec) + "\n" + `{"tenant": "evil"}`,
		bad: "c0001.state.json"},
	{name: "truncated spec", record: spoolRecord("queued", `{"tenant": "ali`), bad: "c0001.state.json"},
	{name: "missing spec", record: `{"id": "c0001", "seq": 1, "tenant": "alice", "status": "queued"}`,
		bad: "c0001.state.json", fault: "EOF"},
	{name: "truncated state", record: `{"id": "c00`, bad: "c0001.state.json"},
	{name: "tenant mismatch", record: spoolRecord("queued", `{"tenant": "mallory", "topology": "figure3"}`),
		bad: "c0001.state.json", fault: `record tenant "alice", spec tenant "mallory"`},
	{name: "unknown status", record: spoolRecord("paused", goodSpec),
		bad: "c0001.state.json", fault: `unknown status "paused"`},
	// A state file as the daemon wrote it before records held the spec:
	// lifecycle state only, the spec in a file of its own. There is no
	// migration.
	{name: "spool from before records held the spec",
		record: "{\n  \"id\": \"c0001\",\n  \"seq\": 1,\n  \"tenant\": \"alice\",\n  \"status\": \"interrupted\",\n  \"priority\": 2\n}\n",
		bad:    "c0001.state.json", fault: "EOF"},
	{name: "v1 checkpoint", record: spoolRecord("interrupted", goodSpec),
		checkpoint: `{"version": 1, "targets": ["10.0.5.2"], "done": ["10.0.5.2"]}`,
		bad:        "c0001.checkpoint.json", fault: "version 1"},
	{name: "checkpoint subnet prefix", record: spoolRecord("interrupted", goodSpec),
		checkpoint: `{"version": 4, "subnets": [{"prefix": "nope", "pivot": "10.0.0.1"}]}`,
		bad:        "c0001.checkpoint.json", fault: `invalid prefix "nope"`},
	{name: "checkpoint row destination", record: spoolRecord("queued", goodSpec),
		checkpoint: `{"version": 4, "rows": [{"dst": "x"}]}`,
		bad:        "c0001.checkpoint.json", fault: `invalid address "x"`},
	{name: "checkpoint path index", record: spoolRecord("running", goodSpec),
		checkpoint: `{"version": 4, "rows": [{"dst": "10.0.5.2",
			"path_addrs": [167772418], "path_subnets": [4], "path_marks": [2]}]}`,
		bad: "c0001.checkpoint.json", fault: "subnet index 4 outside"},
}

// writeSpool writes a one-campaign spool into dir: the record, and the
// checkpoint when it is not empty.
func writeSpool(t testing.TB, dir string, record, checkpoint []byte) {
	sp := spool{dir: dir}
	if err := sp.writeFile("c0001.state.json", record); err != nil {
		t.Fatal(err)
	}
	if len(checkpoint) > 0 {
		if err := sp.writeFile("c0001.checkpoint.json", checkpoint); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayRejectsCorruptSpool: Start trusts nothing it reads back from the
// spool. A hand-corrupted file — a record that does not decode, names an
// unknown status, or holds a spec POST would refuse, a retired checkpoint
// version, a checkpoint that decodes but does not validate — fails Start
// with ErrCorruptSpool naming the file and the fault, instead of running
// something the API never admitted.
func TestReplayRejectsCorruptSpool(t *testing.T) {
	for _, tc := range corruptSpools {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSpool(t, dir, []byte(tc.record), []byte(tc.checkpoint))
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
