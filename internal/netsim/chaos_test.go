// Chaos harness: tracenet sessions over an Internet2-like topology under
// randomized fault plans. Lives in package netsim_test so it can drive the
// full stack (topo → netsim → probe → core → groundtruth) against the fault
// injector without an import cycle.
package netsim_test

import (
	"testing"

	"tracenet/internal/core"
	"tracenet/internal/experiments"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// chaosBudget bounds one session's packets; hitting it fails the run, so a
// passing test doubles as a termination proof for every fault plan.
const chaosBudget = 300_000

// chaosRun traces every Internet2 evaluation target through a network with
// the given fault plan installed and returns the session plus its prober.
func chaosRun(t *testing.T, r *topo.Research, plan *netsim.FaultPlan, opts probe.Options) (*core.Session, *probe.Prober, *netsim.Network) {
	t.Helper()
	n := netsim.New(r.Topo, netsim.Config{Seed: 1})
	if plan != nil {
		if err := n.InstallFaults(*plan); err != nil {
			t.Fatalf("installing plan: %v", err)
		}
	}
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = true
	if opts.SharedBudget == nil {
		opts.SharedBudget = probe.NewSharedBudget(chaosBudget)
	}
	pr := probe.New(port, port.LocalAddr(), opts)
	sess := core.NewSession(pr, core.Config{})
	for _, dst := range r.Targets() {
		if _, err := sess.Trace(dst); err != nil {
			t.Fatalf("session aborted tracing %v: %v", dst, err)
		}
	}
	return sess, pr, n
}

// classifyRun scores the session's collection against the originals and
// returns each original's Table 1/2 class, keyed by original prefix.
func classifyRun(r *topo.Research, sess *core.Session) map[ipv4.Prefix]groundtruth.Class {
	truth := experiments.ResearchTruth(r)
	out := map[ipv4.Prefix]groundtruth.Class{}
	for _, o := range truth.Classify(truth.Score(groundtruth.FromCoreSubnets(sess.Subnets()))) {
		out[o.Truth] = o.Class
	}
	return out
}

// exactMatches filters classifyRun down to the exactly-collected originals.
func exactMatches(classes map[ipv4.Prefix]groundtruth.Class) map[ipv4.Prefix]bool {
	out := map[ipv4.Prefix]bool{}
	for p, c := range classes {
		if c == groundtruth.ClassExact {
			out[p] = true
		}
	}
	return out
}

// missing reports whether class c means the original went entirely unseen.
func missing(c groundtruth.Class) bool {
	return c == groundtruth.ClassMiss || c == groundtruth.ClassMissUnresponsive
}

// TestChaosResilience is the headline robustness property: across 20 seeded
// random fault plans, every session over the Internet2-like topology must
//
//   - terminate (within the probe budget) without error or panic,
//   - never fabricate: an original collected exactly under faults must have
//     been observed (non-missing) by the fault-free run, and
//   - annotate its degradation whenever definite fault evidence was seen.
//
// The fabrication check is deliberately looser than "exact ⊆ baseline
// exact": faults only remove information, but removing addresses from a
// baseline *overestimate* can sharpen it into an exact match. What faults
// must never do is conjure an exact match of an original the clean run could
// not see at all.
func TestChaosResilience(t *testing.T) {
	r := topo.Internet2()
	baseSess, _, _ := chaosRun(t, r, nil, probe.Options{})
	baseClasses := classifyRun(r, baseSess)
	if len(exactMatches(baseClasses)) == 0 {
		t.Fatal("fault-free run collected no exact matches; harness is broken")
	}

	var totalFaultEvents, totalDegraded uint64
	for seed := int64(1); seed <= 20; seed++ {
		plan := netsim.RandomFaultPlan(r.Topo, seed)
		sess, pr, n := chaosRun(t, r, &plan, probe.Options{})

		for p := range exactMatches(classifyRun(r, sess)) {
			if missing(baseClasses[p]) {
				t.Errorf("seed %d: exact match %v was invisible to the fault-free run (fabricated under faults: %+v)",
					seed, p, plan)
			}
		}

		st := pr.Stats()
		totalFaultEvents += st.FaultEvents()
		for _, s := range sess.Subnets() {
			if !s.Degraded {
				continue
			}
			totalDegraded++
			// Confidence 0 is legal: a subnet whose fresh probes all faulted,
			// with membership resolved from the probe cache.
			if s.Confidence < 0 || s.Confidence >= 1 {
				t.Errorf("seed %d: degraded subnet %v confidence %v outside [0,1)", seed, s.Prefix, s.Confidence)
			}
		}
		if fs := n.FaultStats(); fs.Total() == 0 && st.FaultEvents() > 0 {
			t.Errorf("seed %d: prober saw fault events but the plan inflicted none", seed)
		}
	}
	// The 20 plans must actually exercise the fault machinery, and definite
	// fault evidence must surface as degraded annotations somewhere.
	if totalFaultEvents == 0 {
		t.Error("20 chaos seeds produced no observable fault events; plans too weak")
	}
	if totalDegraded == 0 {
		t.Error("20 chaos seeds never flagged a degraded subnet")
	}
}

// TestChaosDeterminism: the same fault plan over the same seeds reproduces
// the identical collection — the property that makes chaos failures
// debuggable.
func TestChaosDeterminism(t *testing.T) {
	r := topo.Internet2()
	plan := netsim.RandomFaultPlan(r.Topo, 7)
	s1, p1, _ := chaosRun(t, r, &plan, probe.Options{})
	s2, p2, _ := chaosRun(t, r, &plan, probe.Options{})
	if p1.Stats() != p2.Stats() {
		t.Errorf("stats differ across identical chaos runs:\n%+v\n%+v", p1.Stats(), p2.Stats())
	}
	a, b := s1.Subnets(), s2.Subnets()
	if len(a) != len(b) {
		t.Fatalf("collected %d vs %d subnets", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || len(a[i].Addrs) != len(b[i].Addrs) ||
			a[i].Degraded != b[i].Degraded || a[i].Confidence != b[i].Confidence {
			t.Errorf("subnet %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBreakerReducesStormLoad is the load-shedding acceptance criterion:
// under a sustained ICMP rate-limit storm, enabling the circuit breaker must
// cut the packets sent by at least 30% while keeping the exact-match count
// within 10% of the breaker-less run.
func TestBreakerReducesStormLoad(t *testing.T) {
	r := topo.Internet2()
	storm := &netsim.FaultPlan{Seed: 9, Faults: []netsim.Fault{
		{Kind: netsim.FaultRateStorm, Rate: 0.05, Burst: 2},
	}}
	retry := &probe.RetryPolicy{MaxRetries: 2, BackoffBase: 8, BackoffMax: 64}

	sessOff, prOff, _ := chaosRun(t, r, storm, probe.Options{Retry: retry})
	sessOn, prOn, _ := chaosRun(t, r, storm, probe.Options{
		Retry:   retry,
		Breaker: &probe.BreakerConfig{Threshold: 6, Cooldown: 64, KeyBits: 24},
	})

	off, on := prOff.Stats(), prOn.Stats()
	if on.BreakerOpens == 0 || on.BreakerSkips == 0 {
		t.Fatalf("breaker never engaged under the storm: %+v", on)
	}
	reduction := 1 - float64(on.Sent)/float64(off.Sent)
	if reduction < 0.30 {
		t.Errorf("breaker cut Sent by %.1f%% (%d -> %d), want >= 30%%",
			100*reduction, off.Sent, on.Sent)
	}

	exOff := len(exactMatches(classifyRun(r, sessOff)))
	exOn := len(exactMatches(classifyRun(r, sessOn)))
	lo := int(float64(exOff) * 0.9)
	hi := exOff + (exOff+9)/10
	if exOn < lo || exOn > hi {
		t.Errorf("breaker changed exact matches beyond 10%%: %d without vs %d with", exOff, exOn)
	}
}
