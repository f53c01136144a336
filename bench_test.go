// Package tracenet's repository-level benchmarks regenerate every table and
// figure of the paper's evaluation, one benchmark per artifact, and report
// the headline numbers as custom metrics:
//
//	go test -bench=. -benchmem
//
// Absolute values come from the simulated substrate, not the authors'
// testbed; EXPERIMENTS.md records the paper-vs-measured comparison.
package tracenet

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/daemon"
	"tracenet/internal/experiments"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// BenchmarkTable1_Internet2 regenerates Table 1: tracenet over the
// Internet2-like network, reporting the §4.1 exact-match and similarity
// headline numbers.
func BenchmarkTable1_Internet2(b *testing.B) {
	var res *experiments.ResearchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1Internet2(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.ExactRate, "exact-%")
	b.ReportMetric(100*res.ExactRateResponsive, "exact-resp-%")
	b.ReportMetric(res.PrefixSimilarity, "prefix-sim")
	b.ReportMetric(res.SizeSimilarity, "size-sim")
	b.ReportMetric(float64(res.Probes), "probes")
}

// BenchmarkTable2_GEANT regenerates Table 2.
func BenchmarkTable2_GEANT(b *testing.B) {
	var res *experiments.ResearchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table2GEANT(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.ExactRate, "exact-%")
	b.ReportMetric(100*res.ExactRateResponsive, "exact-resp-%")
	b.ReportMetric(res.PrefixSimilarityResponsive, "prefix-sim-resp")
	b.ReportMetric(res.SizeSimilarityResponsive, "size-sim-resp")
	b.ReportMetric(float64(res.Probes), "probes")
}

// BenchmarkTable3_Protocols regenerates Table 3 (ICMP vs UDP vs TCP).
func BenchmarkTable3_Protocols(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	icmp, udp, tcp := 0, 0, 0
	for _, r := range rows {
		icmp += r.ICMP
		udp += r.UDP
		tcp += r.TCP
	}
	b.ReportMetric(float64(icmp), "icmp-subnets")
	b.ReportMetric(float64(udp), "udp-subnets")
	b.ReportMetric(float64(tcp), "tcp-subnets")
}

// benchISP runs the shared three-vantage campaign once per benchmark
// iteration.
func benchISP(b *testing.B) *experiments.ISPResult {
	b.Helper()
	var res *experiments.ISPResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunISP(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFigure6_Venn regenerates the cross-vantage agreement figure.
func BenchmarkFigure6_Venn(b *testing.B) {
	res := benchISP(b)
	v := res.Figure6()
	fa, _, _ := v.AgreementAll()
	ga, _, _ := v.AgreementAny()
	b.ReportMetric(100*fa, "all-three-%")
	b.ReportMetric(100*ga, "any-other-%")
	b.ReportMetric(float64(v.ABC), "abc-subnets")
}

// BenchmarkFigure7_IPDistribution regenerates the per-ISP IP address
// distribution panels.
func BenchmarkFigure7_IPDistribution(b *testing.B) {
	res := benchISP(b)
	rows := res.Figure7(0)
	for _, d := range rows {
		if d.ISP == "SprintLink" {
			b.ReportMetric(float64(d.Unsubnetized), "sprint-unsub")
		}
		if d.ISP == "NTTAmerica" {
			b.ReportMetric(float64(d.Subnetized), "ntt-sub")
		}
	}
}

// BenchmarkFigure8_SubnetPerISP regenerates the subnet-per-ISP counts.
func BenchmarkFigure8_SubnetPerISP(b *testing.B) {
	res := benchISP(b)
	counts := res.Figure8(0)
	b.ReportMetric(float64(counts["SprintLink"]), "sprint")
	b.ReportMetric(float64(counts["NTTAmerica"]), "ntt")
	b.ReportMetric(float64(counts["Level3"]), "level3")
	b.ReportMetric(float64(counts["AboveNet"]), "abovenet")
}

// BenchmarkFigure9_PrefixDistribution regenerates the prefix-length
// frequency series.
func BenchmarkFigure9_PrefixDistribution(b *testing.B) {
	res := benchISP(b)
	h := res.Figure9(0)
	b.ReportMetric(float64(h[31]), "slash31")
	b.ReportMetric(float64(h[30]), "slash30")
	b.ReportMetric(float64(h[29]), "slash29")
	b.ReportMetric(float64(h[28]), "slash28")
}

// BenchmarkOverheadModel validates the §3.6 probing-cost model.
func BenchmarkOverheadModel(b *testing.B) {
	var points []experiments.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Overhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxRatio float64
	for _, p := range points {
		if p.PointToPoint {
			continue
		}
		if r := float64(p.Probes) / float64(p.PaperUpperBound); r > maxRatio {
			maxRatio = r
		}
	}
	b.ReportMetric(maxRatio, "max-cost/paper-bound")
}

// BenchmarkAblationBottomUp compares bottom-up growth with the §3.8
// top-down strawman.
func BenchmarkAblationBottomUp(b *testing.B) {
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationBottomUp()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline, "bottom-up-probes")
	b.ReportMetric(res.Ablated, "top-down-probes")
}

// BenchmarkAblationHalfFill measures the half-fill stopping rule's savings.
func BenchmarkAblationHalfFill(b *testing.B) {
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationHalfFill()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline, "guarded-probes")
	b.ReportMetric(res.Ablated, "unguarded-probes")
}

// BenchmarkAblationFluctuation measures the §3.7 two-ingress H6 tolerance
// under load balancing.
func BenchmarkAblationFluctuation(b *testing.B) {
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationTwoIngress()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline, "two-ingress-members")
	b.ReportMetric(res.Ablated, "single-ingress-members")
}

// BenchmarkAblationRetry measures the §3.8 re-probe-on-silence choice.
func BenchmarkAblationRetry(b *testing.B) {
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationRetry()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline, "with-retry-subnets")
	b.ReportMetric(res.Ablated, "no-retry-subnets")
}

// BenchmarkCoverage compares traceroute and tracenet discovery yield
// (the Figure 1 motivation).
func BenchmarkCoverage(b *testing.B) {
	var res *experiments.CoverageResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Coverage(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TracerouteAddrs), "traceroute-addrs")
	b.ReportMetric(float64(res.DiscarteAddrs), "discarte-addrs")
	b.ReportMetric(float64(res.TracenetAddrs), "tracenet-addrs")
	b.ReportMetric(float64(res.Subnets), "subnets")
}

// BenchmarkSingleTrace measures the latency and probe cost of one tracenet
// session over the Figure 3 micro-topology (the library's hot path).
func BenchmarkSingleTrace(b *testing.B) {
	top := topo.Figure3()
	dst := ipv4.MustParseAddr("10.0.5.2")
	b.ResetTimer()
	var probes uint64
	for i := 0; i < b.N; i++ {
		n := netsim.New(top, netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			b.Fatal(err)
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
		if _, err := core.Trace(pr, dst, core.Config{}); err != nil {
			b.Fatal(err)
		}
		probes = pr.Stats().Sent
	}
	b.ReportMetric(float64(probes), "probes/trace")
}

// BenchmarkTraceInternet2Cold measures what a one-shot tracenet run pays
// for one trace: a network on a topology nothing has routed over yet, and
// one trace toward the first Table 1 target. Loading the topology is
// untimed; the routes each trace needs are built inside the timed region.
func BenchmarkTraceInternet2Cold(b *testing.B) {
	var probes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc, err := cli.Load("internet2", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n := netsim.New(sc.Topo, netsim.Config{Seed: 1})
		port, err := n.PortFor(sc.Vantage)
		if err != nil {
			b.Fatal(err)
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
		if _, err := core.Trace(pr, sc.Destinations[0], core.Config{}); err != nil {
			b.Fatal(err)
		}
		probes = pr.Stats().Sent
	}
	b.ReportMetric(float64(probes), "probes/trace")
}

// BenchmarkProbeExchange measures the simulator's raw packet path: encode,
// walk, reply, decode.
func BenchmarkProbeExchange(b *testing.B) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		b.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Retry: &probe.RetryPolicy{}})
	dst := ipv4.MustParseAddr("10.0.5.2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Probe(dst, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// fullTelemetry builds a Telemetry over clock with every surface attached and
// writing to io.Discard, so benchmarks measure instrumentation cost without
// I/O noise.
func fullTelemetry(clock telemetry.Clock) *telemetry.Telemetry {
	tel := telemetry.New(clock)
	tel.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightRecorderSize)
	tel.Tracer = telemetry.NewTracer(io.Discard)
	return tel
}

// BenchmarkSingleTraceTelemetry is BenchmarkSingleTrace with the full
// observability pipeline attached: the delta against the bare benchmark is
// the enabled-telemetry overhead of a session.
func BenchmarkSingleTraceTelemetry(b *testing.B) {
	top := topo.Figure3()
	dst := ipv4.MustParseAddr("10.0.5.2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := netsim.New(top, netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			b.Fatal(err)
		}
		tel := fullTelemetry(n)
		n.SetTelemetry(tel)
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Telemetry: tel})
		if _, err := core.Trace(pr, dst, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeExchangeTelemetry is BenchmarkProbeExchange with telemetry
// enabled on the probe hot path.
func BenchmarkProbeExchangeTelemetry(b *testing.B) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		b.Fatal(err)
	}
	tel := fullTelemetry(n)
	n.SetTelemetry(tel)
	pr := probe.New(port, port.LocalAddr(), probe.Options{Retry: &probe.RetryPolicy{}, Telemetry: tel})
	dst := ipv4.MustParseAddr("10.0.5.2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Probe(dst, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineVsOffline compares tracenet with the offline
// subnet-inference baseline [7].
func BenchmarkOnlineVsOffline(b *testing.B) {
	var res *experiments.OnlineVsOfflineResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.OnlineVsOffline(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.OfflineExact, "offline-exact-%")
	b.ReportMetric(100*res.OnlineExact, "online-exact-%")
}

// BenchmarkRouterMap runs the tracenet + alias-resolution pipeline.
func BenchmarkRouterMap(b *testing.B) {
	var res *experiments.RouterMapResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RouterMap(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Precision, "precision")
	b.ReportMetric(res.Recall, "recall")
	b.ReportMetric(float64(res.ProbesWithConstraint), "probes-constrained")
	b.ReportMetric(float64(res.ProbesWithout), "probes-unconstrained")
}

// rttTransport models a real probe's round-trip latency on top of the
// simulated substrate: every exchange sleeps for rtt before forwarding.
// Campaign probing — like real traceroute probing — is latency-bound, not
// CPU-bound; this is the regime where parallel workers pay off, because
// their RTT waits overlap.
type rttTransport struct {
	inner probe.Transport
	rtt   time.Duration
}

func (t rttTransport) Exchange(raw []byte) ([]byte, error) {
	time.Sleep(t.rtt)
	return t.inner.Exchange(raw)
}

// ExchangeAppend forwards the zero-alloc reply path when the wrapped
// transport has one, so modelling latency doesn't silently knock the campaign
// off the fast path it is supposed to measure.
func (t rttTransport) ExchangeAppend(raw, dst []byte) ([]byte, error) {
	time.Sleep(t.rtt)
	if ea, ok := t.inner.(probe.ExchangeAppender); ok {
		return ea.ExchangeAppend(raw, dst)
	}
	reply, err := t.inner.Exchange(raw)
	if err != nil || reply == nil {
		return nil, err
	}
	return append(dst, reply...), nil
}

// Wait forwards retry-backoff waits so the simulator's virtual clock (and its
// rate-limit buckets) advance as they would on the unwrapped port.
func (t rttTransport) Wait(ticks uint64) {
	if w, ok := t.inner.(probe.Waiter); ok {
		w.Wait(ticks)
	}
}

// benchCampaign runs one full collection over a fresh network per iteration.
func benchCampaign(b *testing.B, tp *netsim.Topology, targets []ipv4.Addr, parallel int, rtt time.Duration) {
	b.Helper()
	var stats collect.Stats
	for i := 0; i < b.N; i++ {
		n := netsim.New(tp, netsim.Config{Seed: 7})
		rep, err := collect.Run(context.Background(), collect.Config{
			Targets:  targets,
			Parallel: parallel,
			Probe:    probe.Options{Cache: true},
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				port, err := n.PortFor("vantage")
				if err != nil {
					return nil, err
				}
				var tr probe.Transport = port
				if rtt > 0 {
					tr = rttTransport{inner: port, rtt: rtt}
				}
				return probe.New(tr, port.LocalAddr(), opts), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = rep.Stats
	}
	b.ReportMetric(float64(stats.WireProbes), "wire-probes")
	b.ReportMetric(float64(stats.ProbesSaved), "probes-saved")
}

// BenchmarkCampaign measures the parallel multi-destination collection engine
// (internal/collect) on a 24-leaf random topology whose destinations share an
// 8-router backbone. The merged topology and metrics exposition are
// byte-identical across worker counts (test-asserted in internal/collect);
// the sub-benchmarks expose what varies — wall clock — and the cache's
// schedule-independent wire-probe savings.
//
// Two regimes per worker count: rtt=0 is engine-bound, fast enough that the
// harness gets a stable iteration count (the headline for simulator-path
// regressions), while rtt=50µs is the latency-bound regime real probing
// lives in, where the parallel=8/parallel=1 wall-clock ratio is the
// lock-contention gauge — overlapped sleeps scale freely, so any shortfall
// from ~8x is serialization inside the exchange path.
func BenchmarkCampaign(b *testing.B) {
	spec := topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2}
	tp, targets := topo.Random(spec)
	for _, rtt := range []time.Duration{0, 50 * time.Microsecond} {
		for _, parallel := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("rtt=%s/parallel=%d", rtt, parallel), func(b *testing.B) {
				benchCampaign(b, tp, targets, parallel, rtt)
			})
		}
	}
}

// BenchmarkCampaignScaling is the parallel-efficiency curve: the 50µs-RTT
// latency-bound regime over 96 destinations, enough work units that the
// longest single trace no longer dominates the tail and the wall-clock ratio
// across worker counts reflects exchange-path serialization alone. With the
// simulator's injection path lock-free, parallel=8 lands at or above 7x over
// parallel=1; a drop in this curve means a shared lock crept back into the
// probe hot path.
func BenchmarkCampaignScaling(b *testing.B) {
	spec := topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 96, LANFraction: 0.25, ExtraLinks: 2}
	tp, targets := topo.Random(spec)
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			benchCampaign(b, tp, targets, parallel, 50*time.Microsecond)
		})
	}
}

// BenchmarkCampaign10k measures collection at survey scale: every address of
// every subnet on a ~1000-leaf random topology, truncated to ten thousand
// destinations — live hosts, dead addresses awaiting their retry budget, and
// transit links answering with unreachables. Engine-bound (no modelled RTT)
// under full worker concurrency, this is the scheduler, cache, and sharded
// simulator under the workload shape of a real survey sweep.
func BenchmarkCampaign10k(b *testing.B) {
	spec := topo.RandomSpec{Seed: 42, Backbone: 32, Leaves: 1024, LANFraction: 0.5, ExtraLinks: 8}
	tp, _ := topo.Random(spec)
	var targets []ipv4.Addr
	for _, s := range tp.Subnets {
		for a := s.Prefix.Base(); a < s.Prefix.Base()+ipv4.Addr(s.Prefix.Size()) && len(targets) < 10000; a++ {
			targets = append(targets, a)
		}
		if len(targets) == 10000 {
			break
		}
	}
	if len(targets) < 10000 {
		b.Fatalf("topology yields only %d destinations", len(targets))
	}
	b.ResetTimer()
	benchCampaign(b, tp, targets, 8, 0)
}

// BenchmarkCampaignISP runs the campaign `tracenet -topo isps -seed 7` runs:
// 1,293 targets over the ISP cores at Parallel 1. Each iteration resolves
// the Spec untimed, so it times a fresh network's route builds and the
// merge as well as the traces. Its CPU against one core.Session over the
// same targets measures what running targets as a campaign costs.
func BenchmarkCampaignISP(b *testing.B) {
	var stats collect.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := (&daemon.Spec{Topology: "isps", Seed: 7, Parallel: 1}).Resolve("")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := collect.Run(context.Background(), c.Config)
		if err != nil {
			b.Fatal(err)
		}
		stats = rep.Stats
	}
	b.ReportMetric(float64(stats.WireProbes), "wire-probes")
}

// BenchmarkCampaignFaulted runs eight faulted campaigns as tracenetd runs
// them: random seeds 1–8, each under its own chaos plan with defence and
// back-off, at Parallel 1, the one worker count at which a faulted campaign
// is deterministic. Each Spec is resolved untimed, as in
// BenchmarkCampaignISP. The summed wire probes put fault injection's
// behaviour under the baseline compare.
func BenchmarkCampaignFaulted(b *testing.B) {
	var wire uint64
	for i := 0; i < b.N; i++ {
		wire = 0
		for seed := int64(1); seed <= 8; seed++ {
			b.StopTimer()
			c, err := (&daemon.Spec{Topology: "random", Seed: seed, Chaos: seed, Defend: true, Backoff: true, Parallel: 1}).Resolve("")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := collect.Run(context.Background(), c.Config)
			if err != nil {
				b.Fatal(err)
			}
			wire += rep.Stats.WireProbes
		}
	}
	b.ReportMetric(float64(wire), "wire-probes")
}

// BenchmarkCampaignProgress measures what live progress tracking costs the
// campaign engine: the same 24-leaf collection run with and without a
// collect.Progress attached (the state behind the observability plane's
// /campaigns endpoint and health checks). The per-probe accounting is pure
// atomics (probe.Activity), so the delta must stay in the noise; the
// per-probe zero-allocation claim is separately pinned by the allocbudget
// gate and TestActivityMarkZeroAlloc.
func BenchmarkCampaignProgress(b *testing.B) {
	spec := topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2}
	for _, tracked := range []bool{false, true} {
		name := "off"
		if tracked {
			name = "on"
		}
		b.Run("progress="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp, targets := topo.Random(spec)
				n := netsim.New(tp, netsim.Config{Seed: 7})
				cfg := collect.Config{
					Targets:  targets,
					Parallel: 4,
					Probe:    probe.Options{Cache: true},
					Dial: func(opts probe.Options) (*probe.Prober, error) {
						port, err := n.PortFor("vantage")
						if err != nil {
							return nil, err
						}
						return probe.New(port, port.LocalAddr(), opts), nil
					},
				}
				if tracked {
					cfg.Progress = collect.NewProgress()
				}
				if _, err := collect.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
				if tracked && !cfg.Progress.Finished() {
					b.Fatal("progress never reported finished")
				}
			}
		})
	}
}

// BenchmarkAccuracy runs the ground-truth accuracy ensemble (DESIGN.md §10)
// and reports the per-regime subnet/address precision and recall, so
// BENCH_*.json baselines record what the collector gets RIGHT alongside what
// it costs. The committed floors in internal/experiments gate regressions;
// this benchmark makes the actual values diffable across baselines.
func BenchmarkAccuracy(b *testing.B) {
	var results []*experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.AccuracySweep(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, res := range results {
		r := string(res.Regime)
		b.ReportMetric(res.SubnetPrecision, r+"-subnet-prec")
		b.ReportMetric(res.SubnetRecall, r+"-subnet-rec")
		b.ReportMetric(res.AddrPrecision, r+"-addr-prec")
		b.ReportMetric(res.AddrRecall, r+"-addr-rec")
	}
}

// BenchmarkDaemonThroughput measures the tracenetd scheduler end to end:
// each iteration starts a daemon over a fresh spool, pushes a batch of
// single-target campaigns through the HTTP-facing submission path
// (daemon.Submit), and waits for the scheduler to land every one — spool
// journaling, tenant accounting, and artifact rendering included. Its
// ns/op tracks the disk under the spool; spool-files/campaign, the files
// the drained spool holds per campaign, is exact and gated.
func BenchmarkDaemonThroughput(b *testing.B) {
	const campaigns = 8
	var files int
	for i := 0; i < b.N; i++ {
		spool := b.TempDir()
		d, err := daemon.New(daemon.Config{Spool: spool, Concurrent: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < campaigns; j++ {
			if _, err := d.Submit(&daemon.Spec{Tenant: "bench", Topology: "figure3"}); err != nil {
				b.Fatal(err)
			}
		}
		for {
			done := 0
			for _, doc := range d.List() {
				if doc.Status != "queued" && doc.Status != "running" {
					done++
				}
			}
			if done == campaigns {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := d.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		entries, err := os.ReadDir(spool)
		if err != nil {
			b.Fatal(err)
		}
		files = len(entries)
	}
	b.ReportMetric(campaigns, "campaigns/op")
	b.ReportMetric(float64(files)/campaigns, "spool-files/campaign")
}
