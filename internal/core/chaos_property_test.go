package core

import (
	"errors"
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// flakyTransport wraps a transport and fails every nth exchange with a
// transport error — the "socket died mid-walk" failure mode.
type flakyTransport struct {
	inner probe.Transport
	n     int
	count int
}

func (f *flakyTransport) Exchange(raw []byte) ([]byte, error) {
	f.count++
	if f.n > 0 && f.count%f.n == 0 {
		return nil, errors.New("simulated socket failure")
	}
	return f.inner.Exchange(raw)
}

// TestSessionNeverAbortsOnTransportErrors: a session over a transport that
// errors every few packets must complete every trace, absorb the failures as
// silence, and annotate the affected hops.
func TestSessionNeverAbortsOnTransportErrors(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{2, 3, 7, 13} {
		tr := &flakyTransport{inner: port, n: every}
		pr := probe.New(tr, port.LocalAddr(), probe.Options{Cache: true})
		sess := NewSession(pr, Config{})
		res, err := sess.Trace(addr("10.0.5.2"))
		if err != nil {
			t.Fatalf("every=%d: session aborted: %v", every, err)
		}
		if res.Recovered == 0 {
			t.Errorf("every=%d: no recoveries recorded", every)
		}
		degradedHop := false
		for _, h := range res.Hops {
			if h.Degraded {
				degradedHop = true
			}
		}
		if !degradedHop {
			t.Errorf("every=%d: recovered errors but no hop marked degraded:\n%v", every, res)
		}
	}
}

// TestSessionAbortsOnBudget: budget exhaustion is NOT absorbed — it must
// still propagate, or a runaway session would spin forever.
func TestSessionAbortsOnBudget(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{SharedBudget: probe.NewSharedBudget(5)})
	if _, err := NewSession(pr, Config{}).Trace(addr("10.0.5.2")); !errors.Is(err, probe.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

// TestDegradedAnnotationUnderCorruption: with a corruption fault active the
// session completes and flags the subnets whose collection saw mangled
// replies, with confidence below 1.
func TestDegradedAnnotationUnderCorruption(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{Seed: 2})
	if err := n.InstallFaults(netsim.FaultPlan{Seed: 5, Faults: []netsim.Fault{
		{Kind: netsim.FaultCorrupt, Prob: 0.3},
	}}); err != nil {
		t.Fatal(err)
	}
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := NewSession(pr, Config{})
	res, err := sess.Trace(addr("10.0.5.2"))
	if err != nil {
		t.Fatalf("session aborted under corruption: %v", err)
	}
	if pr.Stats().Corrupt == 0 {
		t.Fatal("fault plan injected no corruption; test is vacuous")
	}
	deg := sess.DegradedSubnets()
	if len(deg) == 0 {
		t.Fatalf("corruption observed (%d mangled) but no subnet flagged degraded:\n%v",
			pr.Stats().Corrupt, res)
	}
	for _, s := range deg {
		if s.Confidence >= 1 || s.Confidence <= 0 {
			t.Errorf("degraded subnet %v has confidence %v, want (0,1)", s.Prefix, s.Confidence)
		}
		if !strings.Contains(s.String(), "degraded") {
			t.Errorf("degraded subnet renders without annotation: %s", s)
		}
	}
}

// TestFaultFreeRunsStayClean: without faults no subnet may be flagged
// degraded and every confidence must be 1 on a lossless network.
func TestFaultFreeRunsStayClean(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	sess := NewSession(pr, Config{})
	res, err := sess.Trace(addr("10.0.5.2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.DegradedSubnets()) != 0 {
		t.Errorf("clean run produced degraded subnets:\n%v", res)
	}
	if res.Recovered != 0 {
		t.Errorf("clean run recorded %d recoveries", res.Recovered)
	}
	if strings.Contains(res.String(), "degraded") {
		t.Errorf("clean run renders degraded annotations:\n%v", res)
	}
}

// TestAdversarialChaosProperties drives 20 seeded random topologies, each
// under a random byzantine fault plan (lying, alias-confused, hidden and
// echoing responders all candidates), with defenses on. The properties that
// must hold for every seed: the session terminates without error or panic,
// quarantined addresses never survive as subnet members, and every
// degraded subnet keeps a sane confidence.
func TestAdversarialChaosProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		topol, targets := topo.Random(topo.RandomSpec{Seed: seed, ExtraLinks: -1})
		n := netsim.New(topol, netsim.Config{Seed: seed})
		if err := n.InstallFaults(netsim.RandomAdversarialPlan(topol, seed)); err != nil {
			t.Fatalf("seed %d: install: %v", seed, err)
		}
		port, err := n.PortFor("vantage")
		if err != nil {
			t.Fatal(err)
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
		sess := NewSession(pr, Config{Defend: true})
		for _, dst := range targets {
			if _, err := sess.Trace(dst); err != nil {
				t.Fatalf("seed %d: trace %v aborted: %v", seed, dst, err)
			}
		}
		quarantined := map[ipv4.Addr]bool{}
		for _, a := range sess.Quarantined() {
			quarantined[a] = true
		}
		for _, s := range sess.Subnets() {
			for _, a := range s.Addrs {
				if quarantined[a] {
					t.Errorf("seed %d: quarantined %v is a member of %v", seed, a, s.Prefix)
				}
			}
			if s.Confidence < 0 || s.Confidence > 1 {
				t.Errorf("seed %d: subnet %v confidence %v outside [0,1]", seed, s.Prefix, s.Confidence)
			}
		}
	}
}

// TestCheckpointRejectsBadInput: Restore refuses a checkpointed subnet whose
// prefix, pivot, or members do not parse, or whose members fall outside its
// prefix. (The campaign-level path through collect.Run is pinned in
// internal/collect.)
func TestCheckpointRejectsBadInput(t *testing.T) {
	for name, cs := range map[string]CheckpointSubnet{
		"bad prefix":            {Prefix: "nope", Pivot: "10.0.0.1"},
		"bad pivot":             {Prefix: "10.0.0.0/30", Pivot: "x"},
		"bad member":            {Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Addrs: []string{"x"}},
		"member outside prefix": {Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Addrs: []string{"10.9.0.1"}},
		"bad contra-pivot":      {Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", ContraPivot: "x"},
	} {
		if _, err := cs.Restore(); err == nil {
			t.Errorf("%s: subnet restored", name)
		}
	}
}

// TestBreakerTruncatedTraceNotDone is the regression test for a
// checkpoint/resume hole: a trace the circuit breaker cut short ends with
// err == nil (breaker skips read as local silence), but its terminating
// silence was manufactured, not observed. The session must mark it
// BreakerLimited so a campaign keeps it out of its checkpoint and a resume
// (breaker starts closed) retries it — TestCampaignBreakerTruncatedNotDone
// in internal/collect pins that half.
func TestBreakerTruncatedTraceNotDone(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{
		Retry:   &probe.RetryPolicy{},
		Breaker: &probe.BreakerConfig{Threshold: 2, Cooldown: 64, KeyBits: 24},
	})
	sess := NewSession(pr, Config{})

	// A reachable destination completes normally.
	res, err := sess.Trace(addr("10.0.5.2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BreakerLimited {
		t.Fatal("reached destination marked BreakerLimited")
	}

	// 172.16.0.1 is unroutable: every hop beyond the first is silent, the
	// breaker opens after two silences and skips the rest of the trace.
	res, err = sess.Trace(addr("172.16.0.1"))
	if err != nil {
		t.Fatalf("breaker-truncated trace errored: %v", err)
	}
	if res.Reached {
		t.Fatal("unroutable destination reported reached")
	}
	if pr.Stats().BreakerSkips == 0 {
		t.Fatal("scenario did not exercise the breaker: no skips recorded")
	}
	if !res.BreakerLimited {
		t.Error("truncated result not marked BreakerLimited; a resume would silently skip it")
	}
}
