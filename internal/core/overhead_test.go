package core

import (
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// TestOverheadPointToPoint checks the §3.6 lower-bound regime: discovering an
// on-path point-to-point subnet costs a small constant number of probes
// (the paper's model says four; our accounting includes the distance search,
// so we allow a small constant).
func TestOverheadPointToPoint(t *testing.T) {
	pr := prober(t, topo.Chain(5), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.9.255.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Subnets {
		if !s.PointToPoint() {
			continue
		}
		if s.Probes > 12 {
			t.Errorf("p2p subnet %v cost %d probes, want small constant", s.Prefix, s.Probes)
		}
	}
}

// TestOverheadMultiAccessLinear checks the §3.6 upper-bound regime: the probe
// cost of a multi-access subnet is linear in the number of member interfaces
// (the paper's worst case is 7|S|+7).
func TestOverheadMultiAccessLinear(t *testing.T) {
	// Build /27 LANs with k members for growing k and fit cost against k.
	costFor := func(k int) uint64 {
		b := netsim.NewBuilder()
		v := b.Host("vantage")
		r1 := b.Router("R1")
		r2 := b.Router("R2")
		a := b.Subnet("10.255.0.0/30")
		b.Attach(v, a, "10.255.0.1")
		b.Attach(r1, a, "10.255.0.2")
		up := b.Subnet("10.255.1.0/31")
		b.Attach(r1, up, "10.255.1.0")
		b.Attach(r2, up, "10.255.1.1")
		s := b.Subnet("10.7.0.0/27")
		b.Attach(r2, s, "10.7.0.1")
		var first *netsim.Router
		for i := 2; i <= k; i++ {
			m := b.Router("M" + itoa(i))
			b.AttachA(m, s, addr("10.7.0.0")+ipv4.Addr(i))
			if first == nil {
				first = m
			}
		}
		d := b.Host("dest")
		ds := b.Subnet("10.255.2.0/30")
		b.Attach(first, ds, "10.255.2.1")
		b.Attach(d, ds, "10.255.2.2")
		pr := prober(t, b.MustBuild(), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
		res, err := Trace(pr, addr("10.255.2.2"), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range res.Subnets {
			if sub.Prefix.Contains(addr("10.7.0.2")) {
				return sub.Probes
			}
		}
		t.Fatalf("k=%d: subnet not collected", k)
		return 0
	}

	c10 := costFor(10)
	c20 := costFor(20)
	c30 := costFor(30)
	if c20 <= c10 || c30 <= c20 {
		t.Fatalf("cost not increasing with |S|: %d %d %d", c10, c20, c30)
	}
	// Upper bound: the paper's model is 7|S|+7 plus our constant positioning
	// and distance-search overhead; 8|S|+32 is a safe envelope.
	for _, c := range []struct {
		k    int
		cost uint64
	}{{10, c10}, {20, c20}, {30, c30}} {
		bound := uint64(8*c.k + 32)
		if c.cost > bound {
			t.Errorf("|S|=%d cost %d exceeds linear envelope %d", c.k, c.cost, bound)
		}
	}
}

// TestTopDownAblationCostsMore verifies the §3.8 claim motivating bottom-up
// growth: the top-down strawman pays the full assumed-subnet probing cost on
// small subnets.
func TestTopDownAblationCostsMore(t *testing.T) {
	run := func(cfg Config) uint64 {
		pr := prober(t, topo.Chain(4), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
		res, err := Trace(pr, addr("10.9.255.2"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalProbes()
	}
	bottomUp := run(Config{})
	topDown := run(Config{TopDown: true, MinPrefixBits: 26})
	if topDown <= 2*bottomUp {
		t.Fatalf("top-down (%d probes) should cost far more than bottom-up (%d)", topDown, bottomUp)
	}
}

// TestHalfFillAblation verifies that disabling Algorithm 1's lines 19–21
// lets sparse subnets keep growing until some heuristic fires, spending more
// probes than the guarded run.
func TestHalfFillAblation(t *testing.T) {
	run := func(cfg Config) uint64 {
		pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
		res, err := Trace(pr, addr("10.0.5.2"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalProbes()
	}
	guarded := run(Config{})
	unguarded := run(Config{DisableHalfFillStop: true, MinPrefixBits: 24})
	if unguarded <= guarded {
		t.Fatalf("unguarded growth (%d probes) should exceed guarded (%d)", unguarded, guarded)
	}
}
