package netsim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

func TestConfigValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.0001, 2} {
		if _, err := NewChecked(fig3(t), Config{LossRate: bad}); err == nil {
			t.Errorf("NewChecked accepted LossRate %v", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New did not panic on LossRate %v", bad)
				}
			}()
			New(fig3(t), Config{LossRate: bad})
		}()
	}
	// Both boundaries are legal: 0 (lossless) and 1 (fully silent).
	for _, ok := range []float64{0, 0.5, 1} {
		if _, err := NewChecked(fig3(t), Config{LossRate: ok}); err != nil {
			t.Errorf("NewChecked rejected LossRate %v: %v", ok, err)
		}
	}
}

// TestConcurrentNetworkAccess hammers one Network from several goroutines;
// the race detector verifies the internal mutex covers every entry point.
func TestConcurrentNetworkAccess(t *testing.T) {
	n := New(fig3(t), Config{Seed: 3})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Seed: 1, Faults: []Fault{
		{Kind: FaultCorrupt, Prob: 0.2},
		{Kind: FaultDelay, Prob: 0.1},
	}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pkt := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), uint8(1+i%8), uint16(g+1), uint16(i))
				raw, err := pkt.Encode()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Exchange(raw); err != nil {
					t.Error(err)
					return
				}
				p.Wait(1)
				n.Counters()
				n.FaultStats()
				n.DistanceTo("vantage", addr("10.0.2.2"))
			}
		}(g)
	}
	wg.Wait()
	if probes, _ := n.Counters(); probes != 200 {
		t.Errorf("probes = %d, want 200", probes)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"unknown kind":     {Faults: []Fault{{Kind: FaultKind(99)}}},
		"empty window":     {Faults: []Fault{{Kind: FaultCorrupt, Prob: 0.5, From: 10, Until: 10}}},
		"inverted window":  {Faults: []Fault{{Kind: FaultCorrupt, Prob: 0.5, From: 10, Until: 5}}},
		"prob zero":        {Faults: []Fault{{Kind: FaultCorrupt}}},
		"prob over one":    {Faults: []Fault{{Kind: FaultDelay, Prob: 1.5}}},
		"flap no subnet":   {Faults: []Fault{{Kind: FaultLinkFlap}}},
		"storm zero burst": {Faults: []Fault{{Kind: FaultRateStorm, Rate: 0.1}}},
		"storm neg rate":   {Faults: []Fault{{Kind: FaultRateStorm, Rate: -1, Burst: 2}}},
	} {
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: plan validated", name)
		}
	}
	// A field the kind ignores is refused with an error naming the fault,
	// its kind and the field.
	for _, tc := range []struct {
		f     Fault
		field string
	}{
		{Fault{Kind: FaultCorrupt, Prob: 0.3, Router: "bb1"}, "router"},
		{Fault{Kind: FaultChurn, Router: "R2"}, "router"},
		{Fault{Kind: FaultBlackhole, Router: "bb1", Prob: 0.01}, "prob"},
		{Fault{Kind: FaultAliasConfuse, Prob: 0.5}, "prob"},
		{Fault{Kind: FaultHiddenHop, Subnet: "10.0.2.0/24"}, "subnet"},
		{Fault{Kind: FaultDelay, Prob: 0.1, Rate: 1}, "rate"},
		{Fault{Kind: FaultBlackhole, Burst: 2}, "burst"},
		{Fault{Kind: FaultLiar, Prob: 0.5, Addr: "10.0.3.0"}, "addr"},
	} {
		plan := FaultPlan{Faults: []Fault{{Kind: FaultChurn}, tc.f}}
		err := plan.Validate()
		want := fmt.Sprintf("fault 1 (%v): %s does not apply", tc.f.Kind, tc.field)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: err = %v, want one containing %q", tc.f, err, want)
		}
	}
	good := FaultPlan{Seed: 5, Faults: []Fault{
		{Kind: FaultLinkFlap, Subnet: "10.0.2.0/24", From: 5, Until: 50},
		{Kind: FaultBlackhole, Router: "R2"},
		{Kind: FaultCorrupt, Prob: 1},
		{Kind: FaultRateStorm, Rate: 0.5, Burst: 2},
		{Kind: FaultChurn, From: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

// TestFaultKindsTable checks that FaultKinds lists the per-kind table's
// kinds in enum order, and that each name reads back as its kind.
func TestFaultKindsTable(t *testing.T) {
	if len(FaultKinds) != len(faultKinds) {
		t.Fatalf("FaultKinds lists %d kinds, the table has %d", len(FaultKinds), len(faultKinds))
	}
	for i, k := range FaultKinds {
		if int(k) != i {
			t.Errorf("FaultKinds[%d] = %v, want kind %d", i, k, i)
		}
		var back FaultKind
		if err := back.UnmarshalJSON([]byte(`"` + k.String() + `"`)); err != nil || back != k {
			t.Errorf("%v reads back as %v (%v)", k, back, err)
		}
	}
}

func TestInstallFaultsUnknownScopes(t *testing.T) {
	n := New(fig3(t), Config{})
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultLinkFlap, Subnet: "192.168.0.0/24"},
	}}); err == nil || !strings.Contains(err.Error(), "no subnet") {
		t.Errorf("unknown flap subnet: err = %v", err)
	}
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultBlackhole, Router: "R99"},
	}}); err == nil || !strings.Contains(err.Error(), "no router") {
		t.Errorf("unknown blackhole router: err = %v", err)
	}
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultRateStorm, Router: "R99", Rate: 0.1, Burst: 1},
	}}); err == nil || !strings.Contains(err.Error(), "no router") {
		t.Errorf("unknown storm router: err = %v", err)
	}
}

// echoAt sends one echo request toward dst with the given TTL and returns the
// decoded reply (nil for silence).
func echoAt(t *testing.T, p *Port, dst ipv4.Addr, ttl uint8, seq uint16) *wire.Packet {
	t.Helper()
	return exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), dst, ttl, 7, seq))
}

func TestLinkFlapWindow(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	// Flap the multi-access subnet S for clock ticks [2,4): the first probe
	// (clock 1) crosses it, the next two (clocks 2,3) die on it, the fourth
	// (clock 4) crosses again.
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultLinkFlap, Subnet: "10.0.2.0/24", From: 2, Until: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	dst := addr("10.0.2.2")
	if r := echoAt(t, p, dst, 8, 1); r == nil {
		t.Fatal("probe before flap window unanswered")
	}
	for i := uint16(2); i <= 3; i++ {
		if r := echoAt(t, p, dst, 8, i); r != nil {
			t.Fatalf("probe %d crossed a flapped subnet: %+v", i, r)
		}
	}
	if r := echoAt(t, p, dst, 8, 4); r == nil {
		t.Fatal("probe after flap window unanswered")
	}
	if fs := n.FaultStats(); fs.FlapDrops != 2 {
		t.Errorf("FlapDrops = %d, want 2", fs.FlapDrops)
	}
}

func TestBlackholeRouter(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultBlackhole, Router: "R2"},
	}}); err != nil {
		t.Fatal(err)
	}
	// R1 (hop 1) still answers TTL-expired...
	if r := echoAt(t, p, addr("10.0.5.2"), 1, 1); r == nil {
		t.Fatal("R1 silent though only R2 is blackholed")
	}
	// ...but anything that must pass through or terminate at R2 vanishes.
	if r := echoAt(t, p, addr("10.0.5.2"), 2, 2); r != nil {
		t.Fatalf("blackholed R2 answered: %+v", r)
	}
	if r := echoAt(t, p, addr("10.0.5.2"), 8, 3); r != nil {
		t.Fatalf("probe through blackholed R2 answered: %+v", r)
	}
	if fs := n.FaultStats(); fs.BlackholeDrops == 0 {
		t.Error("no blackhole drops recorded")
	}
}

func TestCorruptReplyFailsDecode(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Seed: 11, Faults: []Fault{
		{Kind: FaultCorrupt, Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	raw, err := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 7, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	decodeFailures := 0
	for i := 0; i < 10; i++ {
		out, err := p.Exchange(raw)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			t.Fatal("corruption should mangle the reply, not drop it")
		}
		if _, err := wire.Decode(out); err != nil {
			decodeFailures++
		}
	}
	if decodeFailures == 0 {
		t.Error("no corrupted reply failed to decode (stale checksums should catch all flips)")
	}
	if fs := n.FaultStats(); fs.Corrupted != 10 {
		t.Errorf("Corrupted = %d, want 10", fs.Corrupted)
	}
}

func TestTruncateReply(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Seed: 12, Faults: []Fault{
		{Kind: FaultTruncate, Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	raw, err := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 7, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for i := 0; i < 10; i++ {
		out, err := p.Exchange(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.Decode(out); err == nil {
			full++ // a truncation that kept the whole datagram is impossible
		}
	}
	if full != 0 {
		t.Errorf("%d truncated replies still decoded", full)
	}
	if fs := n.FaultStats(); fs.Truncated != 10 {
		t.Errorf("Truncated = %d, want 10", fs.Truncated)
	}
}

func TestDelayReadsAsSilence(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultDelay, Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if r := echoAt(t, p, addr("10.0.2.2"), 8, 1); r != nil {
		t.Fatalf("delayed reply delivered: %+v", r)
	}
	probes, replies := n.Counters()
	if probes != 1 || replies != 0 {
		t.Errorf("counters = (%d,%d), want (1,0): a delayed reply is not a delivery", probes, replies)
	}
	if fs := n.FaultStats(); fs.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", fs.Delayed)
	}
}

func TestDuplicateImprovesDelivery(t *testing.T) {
	// With heavy loss, a duplication fault gives each reply a second draw:
	// delivery must be strictly better with the fault than without.
	deliveries := func(dup bool) int {
		n := New(fig3(t), Config{Seed: 4, LossRate: 0.6})
		if dup {
			if err := n.InstallFaults(FaultPlan{Faults: []Fault{
				{Kind: FaultDuplicate, Prob: 1},
			}}); err != nil {
				t.Fatal(err)
			}
		}
		p := mustPort(t, n, "vantage")
		got := 0
		for i := 0; i < 200; i++ {
			if r := echoAt(t, p, addr("10.0.2.2"), 8, uint16(i)); r != nil {
				got++
			}
		}
		return got
	}
	plain, dup := deliveries(false), deliveries(true)
	if dup <= plain {
		t.Errorf("duplication did not improve delivery: %d plain vs %d duplicated", plain, dup)
	}
}

func TestRateStormSuppressesReplies(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	// Zero refill, burst 1: R2 answers exactly once, then the storm eats
	// every further reply.
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultRateStorm, Router: "R2", Rate: 0, Burst: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	answered := 0
	for i := 0; i < 5; i++ {
		if r := echoAt(t, p, addr("10.0.5.2"), 2, uint16(i)); r != nil {
			answered++
		}
	}
	if answered != 1 {
		t.Errorf("storm-limited router answered %d of 5, want exactly 1", answered)
	}
	if fs := n.FaultStats(); fs.StormDrops != 4 {
		t.Errorf("StormDrops = %d, want 4", fs.StormDrops)
	}
	// An unscoped router is unaffected.
	if r := echoAt(t, p, addr("10.0.5.2"), 1, 9); r == nil {
		t.Error("R1 silent though the storm targets R2")
	}
}

func TestChurnReshufflesEqualCostChoices(t *testing.T) {
	// Two equal-cost paths between vantage and dest; under PerFlow balancing
	// one flow always sees the same TTL-2 router — unless churn is active.
	build := func() *Topology {
		b := NewBuilder()
		v := b.Host("vantage")
		r1 := b.Router("R1")
		ra := b.Router("RA")
		rb := b.Router("RB")
		r4 := b.Router("R4")
		d := b.Host("dest")
		s0 := b.Subnet("10.1.0.0/30")
		b.Attach(v, s0, "10.1.0.1")
		b.Attach(r1, s0, "10.1.0.2")
		sa := b.Subnet("10.1.1.0/31")
		b.Attach(r1, sa, "10.1.1.0")
		b.Attach(ra, sa, "10.1.1.1")
		sb := b.Subnet("10.1.2.0/31")
		b.Attach(r1, sb, "10.1.2.0")
		b.Attach(rb, sb, "10.1.2.1")
		sa2 := b.Subnet("10.1.3.0/31")
		b.Attach(ra, sa2, "10.1.3.0")
		b.Attach(r4, sa2, "10.1.3.1")
		sb2 := b.Subnet("10.1.4.0/31")
		b.Attach(rb, sb2, "10.1.4.0")
		b.Attach(r4, sb2, "10.1.4.1")
		ds := b.Subnet("10.1.5.0/30")
		b.Attach(r4, ds, "10.1.5.1")
		b.Attach(d, ds, "10.1.5.2")
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	seen := func(n *Network) map[ipv4.Addr]bool {
		p := mustPort(t, n, "vantage")
		out := map[ipv4.Addr]bool{}
		for i := 0; i < 8*churnPeriod; i++ {
			if r := echoAt(t, p, addr("10.1.5.2"), 2, 42); r != nil {
				out[r.IP.Src] = true
			}
		}
		return out
	}
	stable := seen(New(build(), Config{Mode: PerFlow}))
	if len(stable) != 1 {
		t.Fatalf("per-flow balancing used %d TTL-2 routers, want 1", len(stable))
	}
	churned := New(build(), Config{Mode: PerFlow})
	if err := churned.InstallFaults(FaultPlan{Faults: []Fault{{Kind: FaultChurn}}}); err != nil {
		t.Fatal(err)
	}
	if got := seen(churned); len(got) != 2 {
		t.Errorf("churned per-flow balancing used %d TTL-2 routers, want 2", len(got))
	}
}

func TestFaultPlanJSONRoundTrip(t *testing.T) {
	plan := FaultPlan{Seed: 77, Faults: []Fault{
		{Kind: FaultLinkFlap, Subnet: "10.0.2.0/24", From: 10, Until: 90},
		{Kind: FaultCorrupt, Prob: 0.25},
		{Kind: FaultRateStorm, Router: "R2", Rate: 0.1, Burst: 2, From: 5},
	}}
	var buf bytes.Buffer
	if err := WriteFaultPlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFaultPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plan) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, plan)
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"faults": [{"kind": "corrupt", "prob": 0.5, "bogus": 1}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"faults": [{"kind": "melt"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"faults": [{"kind": "corrupt", "prob": 7}]}`)); err == nil {
		t.Error("invalid prob accepted")
	}
}

func TestInstallFaultsReplacesAndDisarms(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{{Kind: FaultDelay, Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	if r := echoAt(t, p, addr("10.0.2.2"), 8, 1); r != nil {
		t.Fatal("delay plan not armed")
	}
	if err := n.InstallFaults(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if r := echoAt(t, p, addr("10.0.2.2"), 8, 2); r == nil {
		t.Fatal("empty plan did not disarm the faults")
	}
	if fs := n.FaultStats(); fs.Total() != 0 {
		t.Errorf("stats not reset on reinstall: %+v", fs)
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	topo := fig3(t)
	a := RandomFaultPlan(topo, 42)
	b := RandomFaultPlan(topo, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	if len(a.Faults) == 0 {
		t.Error("empty random plan")
	}
	c := RandomFaultPlan(topo, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	for seed := int64(0); seed <= 50; seed++ {
		plan := RandomFaultPlan(topo, seed)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		n := New(fig3(t), Config{})
		if err := n.InstallFaults(plan); err != nil {
			t.Fatalf("seed %d: install failed: %v", seed, err)
		}
	}
}
