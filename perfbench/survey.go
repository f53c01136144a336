package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tracenet/internal/collect"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// The survey workload is one 10,000-destination campaign through collect.Run
// at Parallel 2 on a clean random topology: 1024 leaves, every address of
// every subnet in turn. After a warm-up pass, each pass runs over a fresh
// netsim.Network built outside the timed region, and the run reports the
// median pass.
//
// The topology is the one BenchmarkCampaign10k sweeps; the seed picks where
// in the sweep the campaign starts and seeds the network. A topology drawn
// from the seed would change the probes per target and the accuracy by
// 5-15% from seed to seed, more than the bounds the metrics are held to.
const (
	surveyTopoSeed = 42
	surveyTargets  = 10000
	surveyParallel = 2
	surveyMinPass  = 3
)

var surveySpec = topo.RandomSpec{Seed: surveyTopoSeed, Backbone: 32, Leaves: 1024, LANFraction: 0.5, ExtraLinks: 8}

// sweepTargets lists every address of every subnet, in subnet order, up to
// n, and rotates the list to start at a seed-chosen position.
func sweepTargets(tp *netsim.Topology, n int, seed int64) ([]ipv4.Addr, error) {
	var targets []ipv4.Addr
	for _, s := range tp.Subnets {
		base := s.Prefix.Base()
		for a := base; a < base+ipv4.Addr(s.Prefix.Size()) && len(targets) < n; a++ {
			targets = append(targets, a)
		}
		if len(targets) == n {
			k := int(uint64(seed) % uint64(n))
			return append(targets[k:], targets[:k]...), nil
		}
	}
	return nil, fmt.Errorf("topology yields only %d destinations, want %d", len(targets), n)
}

// surveyPass is what one pass produced, for the output checks: every pass
// must match the warm-up pass exactly.
type surveyPass struct {
	stats     collect.Stats
	report    [32]byte // digest of Report.WriteTo
	check     [32]byte // digest of the checkpoint
	precision float64
	recall    float64
}

func runSurvey(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		tp      *netsim.Topology
		targets []ipv4.Addr
		truth   *groundtruth.Truth
		setups  []float64
		builds  []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		tp, _ = topo.Random(surveySpec)
		builds = append(builds, since(t0)*1e3)
		var err error
		if targets, err = sweepTargets(tp, surveyTargets, e.seed); err != nil {
			return nil, err
		}
		netsim.New(tp, netsim.Config{Seed: e.seed})
		truth = groundtruth.FromTopology(tp, groundtruth.Options{})
		setups = append(setups, since(t0))
	}
	o.e2e["setup_s"] = median(setups)
	o.layer["topo.build_ms"] = median(builds)

	s := &survey{e: e, tp: tp, targets: targets, truth: truth, inflight: make(map[ipv4.Addr]*tap)}
	s.net = netsim.New(tp, netsim.Config{Seed: e.seed})
	_, ref, err := s.run(0, -1, false)
	if err != nil {
		return nil, err
	}
	var (
		passes   []float64
		total    meter
		runs     int
		newTimes []float64
		seg      segments // one segment per pass
	)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for runs < surveyMinPass || time.Now().Before(deadline) {
		runs++
		id := uint64(runs)
		// Start every pass from the same heap: the previous pass's report
		// is garbage, and collecting it inside the timed region would make
		// pass times depend on when the collector happened to run.
		runtime.GC()
		tn := time.Now()
		opSpan := e.tr.begin("op", id, -1, tn)
		s.net = netsim.New(tp, netsim.Config{Seed: e.seed})
		t1 := time.Now()
		newTimes = append(newTimes, t1.Sub(tn).Seconds()*1e3)
		e.tr.add("netsim.new", id, opSpan, tn, t1)
		m0 := readMeter()
		c0 := cpuTime()
		secs, res, err := s.run(id, opSpan, true)
		cpu := cpuTime() - c0
		m1 := readMeter()
		e.tr.finish(opSpan, time.Now())
		if err != nil {
			return nil, err
		}
		total.add(m0, m1)
		passes = append(passes, secs)
		seg.add(len(targets), time.Duration(secs*float64(time.Second)), cpu)
		if res != ref {
			o.fail("survey pass %d: %+v differs from the warm-up pass %+v", runs, res, ref)
		}
	}
	s.net = nil
	passTargets := runs * len(targets)
	o.attempted = passTargets
	o.failed = passTargets - runs*ref.stats.Done
	if ref.stats.Done != len(targets) {
		o.fail("survey: only %d of %d targets traced to completion", ref.stats.Done, len(targets))
	}
	seg.report(o)
	o.e2e["wire_probes_per_target"] = float64(ref.stats.WireProbes) / float64(len(targets))
	o.e2e["subnet_precision"] = ref.precision
	o.e2e["subnet_recall"] = ref.recall
	o.e2e["op_success_ratio"] = successRatio(o.attempted, o.failed)
	total.perTarget(o, passTargets)
	if p99, err := percentile(s.latencies, 0.99); err == nil {
		o.e2e["latency_p99_ms"] = p99
	}
	if p50, err := percentile(s.latencies, 0.50); err == nil {
		o.e2e["latency_p50_ms"] = p50
	}
	if s.unpaired > 0 {
		o.fail("survey: %d finished targets had no matching probe session", s.unpaired)
	}

	o.layer["netsim.new_ms"] = median(newTimes)
	o.layer["collect.run_s"] = median(passes)
	o.layer["collect.cache_hit_ratio"] = cacheHitRatio(ref.stats.CacheHits, ref.stats.CacheMisses)
	o.layer["collect.probes_saved_ratio"] = probesSavedRatio(ref.stats.ProbesSaved, ref.stats.WireProbes)
	s.totals.layerMetrics(o.layer)
	lt := e.tr.layers()
	o.layer["collect.report_ms"] = lt["collect.report"].meanMS()
	o.layer["collect.checkpoint_ms"] = lt["collect.checkpoint"].meanMS()
	o.layer["groundtruth.score_ms"] = lt["groundtruth.score"].meanMS()

	digest := fmt.Sprintf("%x %x %d", ref.report, ref.check, ref.stats.WireProbes)
	if err := checkDigest(e, o, fmt.Sprintf("survey-seed%d", e.seed), digest); err != nil {
		return nil, err
	}
	e.logf("survey: %d timed passes, median %.3f s, %d wire probes per pass", runs, median(passes), ref.stats.WireProbes)
	return o, nil
}

// survey is the state one survey run shares across its passes.
type survey struct {
	e       *env
	tp      *netsim.Topology
	targets []ipv4.Addr
	truth   *groundtruth.Truth
	net     *netsim.Network

	mu        sync.Mutex
	inflight  map[ipv4.Addr]*tap
	latencies []float64 // per-target ms over the timed passes
	unpaired  int
	totals    exchangeTotals
}

// register files a tap under the destination its first probe named.
func (s *survey) register(t *tap, dst ipv4.Addr) {
	s.mu.Lock()
	s.inflight[dst] = t
	s.mu.Unlock()
}

// run executes one campaign over s.net, returning the seconds collect.Run
// took and the outputs the checks compare. Only timed passes contribute
// latency samples and trace spans, which hang under the pass's root span
// opSpan.
func (s *survey) run(op uint64, opSpan int, timed bool) (float64, surveyPass, error) {
	tr := s.e.tr
	if !timed {
		tr = nil
	}
	cfg := collect.Config{
		Targets:  s.targets,
		Parallel: surveyParallel,
		Probe:    probe.Options{Cache: true},
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := s.net.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			t := &tap{port: port, timed: tr != nil, burn: s.e.burn, start: time.Now(), first: s.register}
			return probe.New(t, port.LocalAddr(), opts), nil
		},
	}
	var runSpan int
	// OnTargetDone runs on the worker goroutine that traced r.Dst, the same
	// one that drove the target's tap, so reading the tap's counters is safe.
	cfg.OnTargetDone = func(r collect.TargetResult) {
		end := time.Now()
		s.mu.Lock()
		defer s.mu.Unlock()
		t := s.inflight[r.Dst]
		if t == nil {
			s.unpaired++
			return
		}
		delete(s.inflight, r.Dst)
		if timed {
			s.latencies = append(s.latencies, float64(end.Sub(t.start))/1e6)
		}
		if tr != nil {
			s.totals.add(t, end.Sub(t.start))
			tr.add("core.session", op, runSpan, t.start, end)
		}
	}

	start := time.Now()
	runSpan = tr.begin("collect.run", op, opSpan, start)
	rep, err := collect.Run(context.Background(), cfg)
	end := time.Now()
	tr.finish(runSpan, end)
	if err != nil {
		return 0, surveyPass{}, err
	}

	res := surveyPass{stats: rep.Stats}

	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := rep.WriteTo(&buf); err != nil {
		return 0, surveyPass{}, err
	}
	tr.add("collect.report", op, opSpan, t0, time.Now())
	res.report = sha256.Sum256(buf.Bytes())

	buf.Reset()
	t0 = time.Now()
	if err := collect.WriteCheckpoint(&buf, rep.Checkpoint()); err != nil {
		return 0, surveyPass{}, err
	}
	tr.add("collect.checkpoint", op, opSpan, t0, time.Now())
	res.check = sha256.Sum256(buf.Bytes())

	t0 = time.Now()
	score := s.truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))
	tr.add("groundtruth.score", op, opSpan, t0, time.Now())
	res.precision = score.SubnetPrecision
	res.recall = score.SubnetRecall
	return end.Sub(start).Seconds(), res, nil
}
