package collect_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
	"tracenet/internal/topomap"
)

// campaignSpec is a random topology whose 24 leaf destinations share an
// 8-router backbone — the regime where the shared subnet cache pays off.
var campaignSpec = topo.RandomSpec{Seed: 42, Backbone: 8, Leaves: 24, LANFraction: 0.25, ExtraLinks: 2}

// newCampaignNet builds a fresh clean network (and a config targeting its
// leaves) for one run.
func newCampaignNet(t *testing.T) collect.Config {
	t.Helper()
	tp, targets := topo.Random(campaignSpec)
	if len(targets) < 20 {
		t.Fatalf("spec yielded %d targets, need >= 20", len(targets))
	}
	n := netsim.New(tp, netsim.Config{Seed: 7})
	tel := telemetry.New(n)
	n.SetTelemetry(tel)
	return collect.Config{
		Targets:   targets,
		Probe:     probe.Options{Cache: true},
		Telemetry: tel,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}
}

// runCampaign executes one campaign and returns the report plus its rendered
// output and metrics exposition.
func runCampaign(t *testing.T, parallel int, mutate func(*collect.Config)) (*collect.Report, string, string) {
	t.Helper()
	cfg := newCampaignNet(t)
	cfg.Parallel = parallel
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := collect.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign parallel=%d: %v", parallel, err)
	}
	var out bytes.Buffer
	if _, err := rep.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := cfg.Telemetry.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	return rep, out.String(), metrics.String()
}

// TestCampaignProbesSaved is the efficiency guarantee: with >= 20
// destinations sharing backbone paths, the cached campaign puts measurably
// fewer packets on the wire than the same destinations traced independently,
// and the probes-saved accounting exposes the difference.
func TestCampaignProbesSaved(t *testing.T) {
	cached, _, _ := runCampaign(t, 4, nil)
	uncached, _, _ := runCampaign(t, 4, func(cfg *collect.Config) {
		cfg.DisableCache = true
	})

	// The uncached campaign IS 24 independent Session.Trace calls (each
	// target gets a fresh prober and session, no sharing).
	if cached.Stats.CacheHits == 0 {
		t.Fatal("cache recorded no hits on a backbone-sharing topology")
	}
	if cached.Stats.ProbesSaved == 0 {
		t.Fatal("probes-saved accounting is zero despite cache hits")
	}
	if cached.Stats.WireProbes >= uncached.Stats.WireProbes {
		t.Fatalf("cached campaign spent %d wire probes, independent traces %d — cache saved nothing",
			cached.Stats.WireProbes, uncached.Stats.WireProbes)
	}
	t.Logf("wire probes: cached %d vs independent %d (hits %d, saved %d)",
		cached.Stats.WireProbes, uncached.Stats.WireProbes,
		cached.Stats.CacheHits, cached.Stats.ProbesSaved)

	// Sharing must be lossless: both campaigns merge to the same topology.
	if cached.Map.String() != uncached.Map.String() {
		t.Errorf("cached and uncached campaigns merged different topologies:\n--- cached\n%s--- uncached\n%s",
			cached.Map.String(), uncached.Map.String())
	}
}

// TestCampaignBudgetBackpressure exhausts a small campaign budget: the cap is
// never overspent, in-flight targets report budget status, and the remainder
// are skipped rather than traced.
func TestCampaignBudgetBackpressure(t *testing.T) {
	const budget = 40
	rep, _, _ := runCampaign(t, 4, func(cfg *collect.Config) {
		cfg.Budget = budget
	})
	if rep.Stats.WireProbes > budget {
		t.Fatalf("campaign overspent: %d wire probes against budget %d", rep.Stats.WireProbes, budget)
	}
	if rep.Stats.Budget == 0 {
		t.Error("no target reports budget exhaustion")
	}
	if rep.Stats.Skipped == 0 {
		t.Error("backpressure never skipped a target")
	}
	if rep.Stats.Done+rep.Stats.Budget+rep.Stats.Skipped+rep.Stats.Failed != rep.Stats.Targets {
		t.Errorf("status counts don't add up: %+v", rep.Stats)
	}
}

// TestCampaignCancellation: a cancelled context stops dispatch but still
// yields a well-formed report with every target accounted for.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := newCampaignNet(t)
	cfg.Parallel = 4
	rep, err := collect.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Skipped != rep.Stats.Targets {
		t.Fatalf("cancelled campaign traced targets anyway: %+v", rep.Stats)
	}
	var out bytes.Buffer
	if _, err := rep.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign cancelled") {
		t.Errorf("report does not mention cancellation:\n%s", out.String())
	}
}

// TestCampaignResumeSeedsCache: resuming with a partial row list makes the
// remaining targets draw on the cache entries the journaled paths seed —
// a hop context a journaled row grew is never grown again, so the cache
// reports saved probes even for fresh targets.
func TestCampaignResumeSeedsCache(t *testing.T) {
	full, _, _ := runCampaign(t, 1, nil)
	cp := full.Checkpoint()
	// Pretend the campaign died after the first half of the targets.
	half := len(cp.Rows) / 2
	cp.Rows = cp.Rows[:half]

	resumed, _, _ := runCampaign(t, 4, func(cfg *collect.Config) {
		cfg.Resume = cp
	})
	if resumed.Stats.Resumed != half {
		t.Fatalf("resumed %d targets, want %d", resumed.Stats.Resumed, half)
	}
	if resumed.Stats.Done != resumed.Stats.Targets-half {
		t.Fatalf("done %d targets, want %d: %+v", resumed.Stats.Done, resumed.Stats.Targets-half, resumed.Stats)
	}
	if resumed.Stats.ProbesSaved == 0 {
		t.Error("seeded cache entries saved no probes for the remaining targets")
	}
	// The journaled rows' paths fold into the map as the traced rows did,
	// observation counts included.
	if got, want := resumed.Map.String(), full.Map.String(); got != want {
		t.Errorf("merged topologies differ:\n--- resumed\n%s--- full\n%s", got, want)
	}
}

// TestCampaignMergedEqualsSequentialSession: the campaign's merged topology
// must equal what one long-lived session tracing every target accumulates —
// parallel collection is an optimization, not a different measurement. The
// session reuses subnets across targets via SkipKnown, the campaign via the
// shared cache; both observe every subnet once per trace that crosses it, so
// the renderings match, observation counts included.
func TestCampaignMergedEqualsSequentialSession(t *testing.T) {
	type scenario struct {
		name    string
		topo    *netsim.Topology
		vantage string
		targets []ipv4.Addr
		seed    int64
	}
	tp, targets := topo.Random(campaignSpec)
	cases := []scenario{{"random-backbone", tp, "vantage", targets, 7}}
	load := func(name string, seed int64) {
		sc, err := cli.Load(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, scenario{fmt.Sprintf("%s-seed%d", name, seed), sc.Topo, sc.Vantage, sc.Destinations, seed})
	}
	for _, name := range []string{"internet2", "geant", "isps", "figure3", "figure2", "chain"} {
		load(name, 1)
	}
	for seed := int64(1); seed <= 12; seed++ {
		load("random", seed)
	}

	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			n := netsim.New(sc.topo, netsim.Config{Seed: sc.seed})
			rep, err := collect.Run(context.Background(), collect.Config{
				Targets:  sc.targets,
				Parallel: 8,
				Probe:    probe.Options{Cache: true},
				Dial: func(opts probe.Options) (*probe.Prober, error) {
					port, err := n.PortFor(sc.vantage)
					if err != nil {
						return nil, err
					}
					return probe.New(port, port.LocalAddr(), opts), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			port, err := netsim.New(sc.topo, netsim.Config{Seed: sc.seed}).PortFor(sc.vantage)
			if err != nil {
				t.Fatal(err)
			}
			sess := core.NewSession(probe.New(port, port.LocalAddr(), probe.Options{Cache: true}), core.Config{})
			m := topomap.New()
			for _, dst := range sc.targets {
				res, err := sess.Trace(dst)
				if err != nil {
					t.Fatalf("trace %v: %v", dst, err)
				}
				m.AddSession(res)
			}
			if got, want := rep.Map.String(), m.String(); got != want {
				t.Errorf("campaign merged a different topology than one session:\n--- campaign\n%s--- session\n%s", got, want)
			}
		})
	}
}

// TestCampaignOfOneIsATrace: a campaign of one target builds no shared cache,
// so it collects exactly what core.Trace collects on a fresh network, with
// the same probe accounting. (With the cache, the re-probes ClearCache
// forces before each owned growth cost figure3 65 probes instead of 63.)
func TestCampaignOfOneIsATrace(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int // destinations taken from the scenario
	}{{"figure3", 1}, {"figure2", 1}, {"chain", 1}, {"internet2", 3}, {"geant", 3}, {"random", 3}} {
		sc, err := cli.Load(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range sc.Destinations[:c.n] {
			t.Run(fmt.Sprintf("%s/%v", c.name, dst), func(t *testing.T) {
				n := netsim.New(sc.Topo, netsim.Config{Seed: 1})
				var campaignPr *probe.Prober
				rep, err := collect.Run(context.Background(), collect.Config{
					Targets: []ipv4.Addr{dst},
					Probe:   probe.Options{Cache: true},
					Dial: func(opts probe.Options) (*probe.Prober, error) {
						port, err := n.PortFor(sc.Vantage)
						if err != nil {
							return nil, err
						}
						campaignPr = probe.New(port, port.LocalAddr(), opts)
						return campaignPr, nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Targets[0].Result
				if got == nil {
					t.Fatalf("target not traced: %+v", rep.Targets[0])
				}

				port, err := netsim.New(sc.Topo, netsim.Config{Seed: 1}).PortFor(sc.Vantage)
				if err != nil {
					t.Fatal(err)
				}
				tracePr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
				want, err := core.Trace(tracePr, dst, core.Config{})
				if err != nil {
					t.Fatal(err)
				}

				if got.String() != want.String() || fmt.Sprint(got.Subnets) != fmt.Sprint(want.Subnets) {
					t.Errorf("campaign of one collected:\n%s%v\ncore.Trace collected:\n%s%v",
						got, got.Subnets, want, want.Subnets)
				}
				if gs, ws := campaignPr.Stats(), tracePr.Stats(); gs != ws {
					t.Errorf("campaign of one prober stats %+v, core.Trace %+v", gs, ws)
				}
				if rep.Stats.CacheHits+rep.Stats.CacheMisses != 0 {
					t.Errorf("campaign of one used a shared cache: %+v", rep.Stats)
				}
			})
		}
	}
}

// TestCampaignBreakerTruncatedNotDone is the regression test for the
// campaign-level checkpoint/resume hole: a target whose trace the circuit
// breaker cut short ends with err == nil, so it used to be marked done,
// journaled in the checkpoint, and silently skipped on resume. It must
// instead carry the breaker status, stay out of the checkpoint's rows, and be
// retried by a resumed campaign.
func TestCampaignBreakerTruncatedNotDone(t *testing.T) {
	tp := topo.Figure3()
	n := netsim.New(tp, netsim.Config{})
	reachable := ipv4.MustParseAddr("10.0.5.2")
	unroutable := ipv4.MustParseAddr("172.16.0.1")
	cfg := collect.Config{
		Targets: []ipv4.Addr{reachable, unroutable},
		Probe: probe.Options{
			Cache:   true,
			Retry:   &probe.RetryPolicy{},
			Breaker: &probe.BreakerConfig{Threshold: 2, Cooldown: 64, KeyBits: 24},
		},
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}

	rep, err := collect.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets[0].Status != collect.StatusDone {
		t.Fatalf("reachable target status = %s", rep.Targets[0].Status)
	}
	if rep.Targets[1].Status != collect.StatusBreaker {
		t.Fatalf("breaker-truncated target status = %s, want %s", rep.Targets[1].Status, collect.StatusBreaker)
	}
	if rep.Stats.Breaker != 1 || rep.Stats.Done != 1 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
	var out bytes.Buffer
	if _, err := rep.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "breaker 1") {
		t.Errorf("report does not surface the breaker count:\n%s", out.String())
	}

	cp := rep.Checkpoint()
	if len(cp.Rows) != 1 || cp.Rows[0].Dst != reachable.String() {
		t.Fatalf("checkpoint rows = %+v; breaker-truncated target must not be listed", cp.Rows)
	}

	// Resume: the done target is skipped, the truncated one is retraced.
	cfg.Resume = cp
	rep2, err := collect.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Targets[0].Status != collect.StatusResumed {
		t.Errorf("resumed campaign retraced the done target: %s", rep2.Targets[0].Status)
	}
	if rep2.Targets[1].Status == collect.StatusResumed {
		t.Error("resumed campaign silently skipped the breaker-truncated target")
	}
}

// TestCampaignResumeEvalEquivalence closes the loop between the checkpoint
// machinery and the ground-truth scorer: a campaign resumed from a half-done
// checkpoint (remaining targets served partly by the seeded cache) must
// score IDENTICALLY against the true topology to the fresh end-to-end
// run — same verdicts, same precision/recall, byte-identical evaluation
// text. And every subnet carried through the checkpoint must keep its
// confidence annotation inside the documented (0,1] range.
func TestCampaignResumeEvalEquivalence(t *testing.T) {
	full, _, _ := runCampaign(t, 1, nil)
	cp := full.Checkpoint()
	half := len(cp.Rows) / 2
	cp.Rows = cp.Rows[:half]

	resumed, _, _ := runCampaign(t, 4, func(cfg *collect.Config) {
		cfg.Resume = cp
	})

	for _, sub := range resumed.Subnets() {
		if sub.Confidence <= 0 || sub.Confidence > 1 {
			t.Errorf("checkpoint-carried subnet %v has confidence %v outside (0,1]",
				sub.Prefix, sub.Confidence)
		}
	}

	tp, _ := topo.Random(campaignSpec)
	truth := groundtruth.FromTopology(tp, groundtruth.Options{})
	fullScore := truth.Score(groundtruth.FromTopomap(full.Map))
	resumedScore := truth.Score(groundtruth.FromTopomap(resumed.Map))

	var fullText, resumedText bytes.Buffer
	if _, err := fullScore.WriteText(&fullText); err != nil {
		t.Fatal(err)
	}
	if _, err := resumedScore.WriteText(&resumedText); err != nil {
		t.Fatal(err)
	}
	if fullText.String() != resumedText.String() {
		t.Errorf("resumed campaign scores differently from fresh run:\n--- fresh\n%s--- resumed\n%s",
			fullText.String(), resumedText.String())
	}
	if fullScore.SubnetPrecision != 1 {
		t.Errorf("clean campaign subnet precision %v, want 1 (collector invented subnets)",
			fullScore.SubnetPrecision)
	}
}
