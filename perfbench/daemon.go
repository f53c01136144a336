package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/probe"
)

// The daemon workload serves tracenetd in-process, wired the way
// cmd/tracenetd wires it, over the loopback interface with Concurrent 2. Two
// clients run a closed loop: POST a spec, wait for that campaign's "campaign
// finished" log record, GET its report and check it.
//
// An untimed first pass over the spec list fills a spool. Each timed pass
// then starts a fresh daemon on a copy of that spool, which it replays at
// start, and drives the same list through it; every report must equal the
// first pass's report for the same spec. A pass is counted in campaigns, not
// seconds, so the registry and the heap reach the same size in every pass.
// Passes repeat until the run's time is spent, so the run's figures cover
// its whole length, and the run reports the median pass.
const (
	daemonClients     = 2
	daemonConcurrent  = 2
	daemonCampaigns   = 440 // per pass
	daemonMinPasses   = 3
	daemonTenant      = "bench"
	daemonShadowSpecs = 60
	opTimeout         = 60 * time.Second
)

// daemonSpec is one submission of the mix.
type daemonSpec struct {
	spec daemon.Spec
	body []byte
}

// daemonSpecs builds the spec mix: one internet2 campaign in two hundred,
// one faulted campaign in ten (chaos, defence, back-off and evaluation), and
// 24-target random campaigns otherwise, each on its own topology seed. The
// internet2 share stays under 1% so that the p99 falls among the faulted
// campaigns, whose evaluation it is meant to track. The set of campaigns is
// fixed; the seed decides the order they are submitted in, so the accuracy
// and probe counts are the same for every seed and a timing spread between
// seeds measures the machine, not the inputs. Every campaign runs at
// Parallel 1: a faulted campaign with more than one worker is not
// deterministic.
func daemonSpecs(seed int64, n int) ([]daemonSpec, error) {
	specs := make([]daemonSpec, n)
	for i := range specs {
		sp := daemon.Spec{Tenant: daemonTenant, Parallel: 1, Topology: "random", Seed: int64(i) + 1}
		switch {
		case i < n/200:
			sp.Topology = "internet2"
		case i < n/200+n/10:
			sp.Chaos = sp.Seed
			sp.Defend, sp.Backoff, sp.Eval = true, true, true
		}
		body, err := json.Marshal(&sp)
		if err != nil {
			return nil, err
		}
		specs[i] = daemonSpec{spec: sp, body: body}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, nil
}

// tracenetd is one in-process daemon with its HTTP server and a client.
type tracenetd struct {
	d      *daemon.Daemon
	srv    *obs.Server
	base   string
	logs   *logTap
	client *http.Client
}

// startTracenetd starts a daemon over spool the way cmd/tracenetd does and
// returns once /readyz answers 200. replay is the time d.Start took.
func startTracenetd(spool string) (t *tracenetd, replay time.Duration, err error) {
	d, err := daemon.New(daemon.Config{Spool: spool, Concurrent: daemonConcurrent})
	if err != nil {
		return nil, 0, err
	}
	logs := newLogTap()
	lg := obs.NewLogger(d.Clock(), logs, obs.LevelInfo, obs.DefaultLogRingSize)
	d.SetLogger(lg)
	srv := obs.NewServer(d.Telemetry(), lg)
	d.Attach(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	t = &tracenetd{
		d:    d,
		srv:  srv,
		base: "http://" + addr.String(),
		logs: logs,
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: daemonClients,
			MaxConnsPerHost:     daemonClients,
		}},
	}
	r0 := time.Now()
	if err := d.Start(); err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, err
	}
	replay = time.Since(r0)
	code, _, err := t.get("/readyz")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/readyz answered %d after start", code)
	}
	if err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, replay, nil
}

// stop drains the daemon and shuts its server down.
func (t *tracenetd) stop() error {
	t.client.CloseIdleConnections()
	derr := t.d.Drain(context.Background())
	serr := t.srv.Shutdown(context.Background())
	if derr != nil {
		return derr
	}
	return serr
}

func (t *tracenetd) get(path string) (int, []byte, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// campaignOp is one closed-loop operation as its client saw it.
type campaignOp struct {
	err       error
	start     time.Time
	submitted time.Time // POST reply read
	started   time.Time // "campaign started" record
	finished  time.Time // "campaign finished" record
	getStart  time.Time
	end       time.Time // report read
	status    string
	id        string
	report    []byte // normalised: the campaign ID is masked
	eval      []byte
	targets   int
	done      int
}

// campaign submits one spec and follows it to its report.
func (t *tracenetd) campaign(sp *daemonSpec) campaignOp {
	var op campaignOp
	op.start = time.Now()
	resp, err := t.client.Post(t.base+"/api/v1/campaigns", "application/json", bytes.NewReader(sp.body))
	if err != nil {
		op.err = err
		return op
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op.submitted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		op.err = fmt.Errorf("submit: status %d, %v: %s", resp.StatusCode, err, body)
		return op
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		op.err = fmt.Errorf("submit: bad reply %q", body)
		return op
	}
	ev := t.logs.events(acc.ID)
	timeout := time.NewTimer(opTimeout)
	select {
	case <-ev.done:
		timeout.Stop()
	case <-timeout.C:
		op.err = fmt.Errorf("campaign %s: no finished record after %v", acc.ID, opTimeout)
		return op
	}
	op.started, op.finished, op.status = t.logs.result(acc.ID)
	op.getStart = time.Now()
	code, report, err := t.get("/api/v1/campaigns/" + acc.ID + "/report")
	op.end = time.Now()
	if err != nil || code != http.StatusOK {
		op.err = fmt.Errorf("campaign %s report: status %d, %v", acc.ID, code, err)
		return op
	}
	op.id = acc.ID
	op.report, op.targets, op.done, op.err = normaliseReport(report)
	return op
}

// fetchEvals reads the evaluation artifact of every campaign whose spec
// asked for one. It runs after the closed loop, so the fetches do not
// compete with the timed operations.
func (t *tracenetd) fetchEvals(specs []daemonSpec, ops []campaignOp) {
	for i := range ops {
		op := &ops[i]
		if op.err != nil || !specs[i].spec.Eval {
			continue
		}
		code, eval, err := t.get("/api/v1/campaigns/" + op.id + "/eval")
		if err != nil || code != http.StatusOK {
			op.err = fmt.Errorf("campaign %s eval: status %d, %v", op.id, code, err)
			continue
		}
		op.eval = eval
	}
}

// normaliseReport masks the campaign ID in a daemon report's header, which
// depends on submission order, and reads the header's target counts.
func normaliseReport(r []byte) (norm []byte, targets, done int, err error) {
	header, rest, _ := bytes.Cut(r, []byte("\n"))
	f := strings.Fields(string(header))
	// campaign <id> tenant <t>: <n> targets (done <d>, ...
	if len(f) < 8 || f[0] != "campaign" || f[5] != "targets" || f[6] != "(done" {
		return nil, 0, 0, fmt.Errorf("report header %q", header)
	}
	if _, err := fmt.Sscanf(f[4]+" "+strings.TrimSuffix(f[7], ","), "%d %d", &targets, &done); err != nil {
		return nil, 0, 0, fmt.Errorf("report header %q: %v", header, err)
	}
	f[1] = "*"
	norm = append([]byte(strings.Join(f, " ")+"\n"), rest...)
	return norm, targets, done, nil
}

// drive runs the closed loop: daemonClients clients take the specs in order
// until none is left. Results are indexed like specs.
func (t *tracenetd) drive(specs []daemonSpec) []campaignOp {
	ops := make([]campaignOp, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				ops[i] = t.campaign(&specs[i])
			}
		}()
	}
	wg.Wait()
	return ops
}

// spoolUsage counts the spool's files and bytes.
func spoolUsage(dir string) (files int, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, en := range entries {
		info, err := en.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes, nil
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runDaemon(e *env) (*outcome, error) {
	o := newOutcome()
	specs, err := daemonSpecs(e.seed, daemonCampaigns)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.spool, "spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "prefill")
	if err := os.Mkdir(base, 0o755); err != nil {
		return nil, err
	}

	// The earlier pass: fills the spool and fixes each spec's reference
	// report. Untimed.
	first, _, err := startTracenetd(base)
	if err != nil {
		return nil, err
	}
	ref := first.drive(specs)
	first.fetchEvals(specs, ref)
	if err := first.stop(); err != nil {
		return nil, err
	}
	for i := range ref {
		if ref[i].err != nil {
			return nil, fmt.Errorf("spool pre-fill, spec %d: %w", i, ref[i].err)
		}
	}

	var (
		setups, replays, rates, costs, p50s []float64
		files, kb, retained                 []float64
		lat, submit, queue, runMS, get      []float64
		mem                                 meter
		targets, doneTargets                int
		wire                                uint64
		exact, coll, exactTruth, truthSub   int
	)
	all := sha256.New()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for p := 0; p < daemonMinPasses || time.Now().Before(deadline); p++ {
		r, err := daemonPass(e, dir, base, specs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup)
		replays = append(replays, r.replay*1e3)
		files = append(files, float64(r.files)/float64(len(specs)))
		kb = append(kb, float64(r.bytes)/1024/float64(len(specs)))
		retained = append(retained, r.retainedKB/float64(len(specs)))
		mem.add(meter{}, r.mem)
		wire += r.wire

		var passLat []float64
		passTargets := 0
		for i := range r.ops {
			op := &r.ops[i]
			o.attempted++
			if op.err != nil {
				o.failed++
				o.fail("daemon pass %d, spec %d: %v", p, i, op.err)
				continue
			}
			if op.status != "done" || !bytes.Equal(op.report, ref[i].report) || !bytes.Equal(op.eval, ref[i].eval) {
				o.failed++
				o.fail("daemon pass %d, spec %d: status %s; report or eval differs from the pre-fill pass", p, i, op.status)
				continue
			}
			if p == 0 {
				all.Write(op.report)
				all.Write(op.eval)
			}
			passTargets += op.targets
			doneTargets += op.done
			ms := float64(op.end.Sub(op.start)) / 1e6
			passLat = append(passLat, ms)
			lat = append(lat, ms)
			submit = append(submit, float64(op.submitted.Sub(op.start))/1e6)
			queue = append(queue, max(0, float64(op.started.Sub(op.submitted))/1e6))
			runMS = append(runMS, float64(op.finished.Sub(op.started))/1e6)
			get = append(get, float64(op.end.Sub(op.getStart))/1e6)
			if e.tr != nil {
				id := uint64(p*len(specs) + i + 1)
				root := e.tr.add("op", id, -1, op.start, op.end)
				e.tr.add("daemon.submit", id, root, op.start, op.submitted)
				if op.started.After(op.submitted) {
					e.tr.add("daemon.queue_wait", id, root, op.submitted, op.started)
				}
				e.tr.add("daemon.run", id, root, op.started, op.finished)
				e.tr.add("daemon.report_get", id, root, op.getStart, op.end)
			}
			if op.eval != nil && p == 0 {
				var sc groundtruth.Score
				if err := json.Unmarshal(op.eval, &sc); err != nil {
					o.fail("daemon spec %d: eval: %v", i, err)
					continue
				}
				exact += sc.ExactCollected
				coll += sc.CollectedSubnets
				exactTruth += sc.ExactTruth
				truthSub += sc.TruthSubnets
			}
		}
		targets += passTargets
		// The spec mix is uneven (an internet2 campaign has far more targets
		// than a random one), so a pass's rates are taken over the whole
		// pass; the run reports the median pass.
		rates = append(rates, float64(passTargets)/r.wall)
		costs = append(costs, ratio(r.cpu.Seconds()*1e3, float64(passTargets)))
		if p50, err := percentile(passLat, 0.50); err == nil {
			p50s = append(p50s, p50)
		}
		e.logf("daemon pass %d: %d campaigns, %d targets in %.2f s", p, len(specs), passTargets, r.wall)
	}
	if doneTargets != targets {
		o.fail("daemon: %d of %d targets done", doneTargets, targets)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["targets_per_s"] = median(rates)
	o.e2e["cpu_ms_per_target"] = median(costs)
	o.e2e["latency_p50_ms"] = median(p50s)
	if p99, err := percentile(lat, 0.99); err == nil {
		o.e2e["latency_p99_ms"] = p99
	}
	mem.perTarget(o, targets)
	o.e2e["wire_probes_per_target"] = ratio(float64(wire), float64(targets))
	o.e2e["subnet_precision"] = ratio(float64(exact), float64(coll))
	o.e2e["subnet_recall"] = ratio(float64(exactTruth), float64(truthSub))
	o.e2e["op_success_ratio"] = successRatio(o.attempted, o.failed)

	o.layer["daemon.submit_ms"] = mean(submit)
	o.layer["daemon.queue_wait_ms"] = mean(queue)
	o.layer["daemon.run_ms"] = mean(runMS)
	o.layer["daemon.report_get_ms"] = mean(get)
	o.layer["daemon.replay_ms"] = median(replays)
	o.layer["daemon.spool_files_per_campaign"] = median(files)
	o.layer["daemon.spool_kb_per_campaign"] = median(kb)
	o.layer["daemon.retained_kb_per_campaign"] = median(retained)
	if e.tr != nil {
		if err := shadow(e, o, specs[:min(len(specs), daemonShadowSpecs)]); err != nil {
			return nil, err
		}
	}

	if err := checkDigest(e, o, fmt.Sprintf("daemon-seed%d", e.seed), fmt.Sprintf("%x", all.Sum(nil))); err != nil {
		return nil, err
	}
	return o, nil
}

// daemonPassResult is what one timed pass measured.
type daemonPassResult struct {
	setup      float64 // seconds from daemon.New to /readyz answering 200
	replay     float64 // seconds d.Start spent replaying the spool
	ops        []campaignOp
	wall       float64
	cpu        time.Duration
	mem        meter
	wire       uint64
	retainedKB float64 // live heap the pass left behind
	files      int     // spool files the pass added
	bytes      int64   // spool bytes the pass added
}

// daemonPass starts a daemon on a fresh copy of the pre-filled spool, so
// that every pass replays the same journal and grows the registry and heap
// by the same campaigns, and drives the spec list through it once.
//
// The copy is removed once the daemon has stopped, outside the timed region,
// so the spool tmpfs holds at most the pre-filled spool and one copy.
func daemonPass(e *env, dir, base string, specs []daemonSpec) (*daemonPassResult, error) {
	spool, err := os.MkdirTemp(dir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spool)
	if err := copyFiles(base, spool); err != nil {
		return nil, err
	}
	runtime.GC()
	r := &daemonPassResult{}
	t0 := time.Now()
	t, replay, err := startTracenetd(spool)
	if err != nil {
		return nil, err
	}
	r.setup, r.replay = since(t0), replay.Seconds()

	heap0 := liveHeap()
	files0, bytes0, err := spoolUsage(spool)
	if err != nil {
		t.stop()
		return nil, err
	}
	m0 := readMeter()
	cpu0 := cpuTime()
	start := time.Now()
	r.ops = t.drive(specs)
	r.wall = since(start)
	r.cpu = cpuTime() - cpu0
	r.mem.add(m0, readMeter())
	t.fetchEvals(specs, r.ops)
	r.wire = t.d.Telemetry().Registry.Counter("tracenet_tenant_probes_total", "tenant", daemonTenant).Value()
	heap1 := liveHeap()
	r.retainedKB = float64(heap1-min(heap0, heap1)) / 1024
	files1, bytes1, err := spoolUsage(spool)
	if err != nil {
		t.stop()
		return nil, err
	}
	r.files, r.bytes = files1-files0, bytes1-bytes0
	if err := t.stop(); err != nil {
		return nil, err
	}
	return r, nil
}

// copyFiles copies every regular file of src into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range entries {
		if !en.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// shadow times, from the benchmark's side, the layer calls a daemon campaign
// makes internally: it resolves and runs each spec the way daemon.resolve
// and daemon.finish do, after the timed pass, so the daemon workload has
// topology, netsim, core and collect figures of its own.
func shadow(e *env, o *outcome, specs []daemonSpec) error {
	var totals exchangeTotals
	var runs, hits, misses, saved, sent float64
	for i := range specs {
		sp := &specs[i].spec
		id := uint64(1_000_000 + i)
		t0 := time.Now()
		root := e.tr.begin("shadow", id, -1, t0)
		sc, err := cli.Load(sp.Topology, sp.Seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		e.tr.add("topo.build", id, root, t0, t1)
		net := netsim.New(sc.Topo, netsim.Config{Seed: sp.Seed})
		if sp.Chaos != 0 {
			if err := net.InstallFaults(netsim.RandomFaultPlan(sc.Topo, sp.Chaos)); err != nil {
				return err
			}
		}
		t2 := time.Now()
		e.tr.add("netsim.new", id, root, t1, t2)
		popts := probe.Options{Cache: true}
		if sp.Backoff {
			// The retry policy daemon.resolve installs for a back-off spec.
			popts.Retry = &probe.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffMax: 64, Jitter: 0.25}
		}
		var cur *tap
		cfg := collect.Config{
			Targets:  sc.Destinations,
			Parallel: 1,
			Session:  core.Config{MaxTTL: 30, Defend: sp.Defend},
			Probe:    popts,
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				port, err := net.PortFor(sc.Vantage)
				if err != nil {
					return nil, err
				}
				cur = &tap{port: port, timed: true, burn: e.burn, start: time.Now()}
				return probe.New(cur, port.LocalAddr(), opts), nil
			},
			OnTargetDone: func(collect.TargetResult) {
				if cur != nil {
					totals.add(cur, time.Since(cur.start))
					cur = nil
				}
			},
		}
		rep, err := collect.Run(context.Background(), cfg)
		if err != nil {
			return err
		}
		t3 := time.Now()
		e.tr.add("collect.run", id, root, t2, t3)
		runs += t3.Sub(t2).Seconds()
		hits += float64(rep.Stats.CacheHits)
		misses += float64(rep.Stats.CacheMisses)
		saved += float64(rep.Stats.ProbesSaved)
		sent += float64(rep.Stats.WireProbes)

		if _, err := rep.WriteTo(io.Discard); err != nil {
			return err
		}
		t4 := time.Now()
		e.tr.add("collect.report", id, root, t3, t4)
		if err := collect.WriteCheckpoint(io.Discard, rep.Checkpoint()); err != nil {
			return err
		}
		t5 := time.Now()
		e.tr.add("collect.checkpoint", id, root, t4, t5)
		if sp.Eval {
			truth := groundtruth.FromTopology(sc.Topo, groundtruth.Options{})
			truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))
			t6 := time.Now()
			e.tr.add("groundtruth.score", id, root, t5, t6)
			t5 = t6
		}
		e.tr.finish(root, t5)
	}
	totals.layerMetrics(o.layer)
	lt := e.tr.layers()
	o.layer["topo.build_ms"] = lt["topo.build"].meanMS()
	o.layer["netsim.new_ms"] = lt["netsim.new"].meanMS()
	o.layer["collect.run_s"] = runs / float64(len(specs))
	o.layer["collect.cache_hit_ratio"] = cacheHitRatio(uint64(hits), uint64(misses))
	o.layer["collect.probes_saved_ratio"] = probesSavedRatio(uint64(saved), uint64(sent))
	o.layer["collect.report_ms"] = lt["collect.report"].meanMS()
	o.layer["collect.checkpoint_ms"] = lt["collect.checkpoint"].meanMS()
	o.layer["groundtruth.score_ms"] = lt["groundtruth.score"].meanMS()
	return nil
}
