package netsim

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

func TestLiarRotatesSpoofedSources(t *testing.T) {
	honest := New(fig3(t), Config{})
	hp := mustPort(t, honest, "vantage")
	truth := echoAt(t, hp, addr("10.0.5.2"), 1, 1)
	if truth == nil {
		t.Fatal("clean network silent at TTL 1")
	}

	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Seed: 9, Faults: []Fault{
		{Kind: FaultLiar, Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	sources := map[ipv4.Addr]bool{}
	for i := 0; i < 12; i++ {
		r := echoAt(t, p, addr("10.0.5.2"), 1, uint16(i))
		if r == nil {
			t.Fatal("liar went silent; the fault lies, it does not drop")
		}
		sources[r.IP.Src] = true
	}
	if len(sources) < 2 {
		t.Errorf("liar at prob 1 never rotated: sources %v", sources)
	}
	spoofed := false
	for s := range sources {
		if s != truth.IP.Src {
			spoofed = true
		}
	}
	if !spoofed {
		t.Errorf("every spoofed source equals the honest one %v", truth.IP.Src)
	}
	if fs := n.FaultStats(); fs.LiarSpoofs != 12 {
		t.Errorf("LiarSpoofs = %d, want 12", fs.LiarSpoofs)
	}
}

func TestAliasConfuseCollapsesSources(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	shared := addr("10.0.3.0") // R2's iface on T, nowhere near R1's honest reply
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultAliasConfuse, Addr: "10.0.3.0"},
	}}); err != nil {
		t.Fatal(err)
	}
	// Distinct hops all answer from the one shared source.
	for ttl := uint8(1); ttl <= 3; ttl++ {
		r := echoAt(t, p, addr("10.0.5.2"), ttl, uint16(ttl))
		if r == nil {
			t.Fatalf("TTL %d silent under alias-confuse", ttl)
		}
		if r.IP.Src != shared {
			t.Errorf("TTL %d reply from %v, want shared %v", ttl, r.IP.Src, shared)
		}
	}
	if fs := n.FaultStats(); fs.AliasShares != 3 {
		t.Errorf("AliasShares = %d, want 3", fs.AliasShares)
	}
}

func TestAliasConfuseDefaultsToLowestIface(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultAliasConfuse},
	}}); err != nil {
		t.Fatal(err)
	}
	r := echoAt(t, p, addr("10.0.5.2"), 2, 1)
	if r == nil {
		t.Fatal("silent under alias-confuse")
	}
	// 10.0.0.2 is R1's access iface — the lowest non-host interface address
	// in figure 3.
	if want := addr("10.0.0.2"); r.IP.Src != want {
		t.Errorf("default shared source %v, want lowest iface %v", r.IP.Src, want)
	}
}

func TestHiddenHopForwardsTransparently(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Faults: []Fault{
		{Kind: FaultHiddenHop, Router: "R2"},
	}}); err != nil {
		t.Fatal(err)
	}
	// R1 still answers; R2's position reads as a gap.
	if r := echoAt(t, p, addr("10.0.5.2"), 1, 1); r == nil {
		t.Fatal("R1 silent though only R2 is hidden")
	}
	if r := echoAt(t, p, addr("10.0.5.2"), 2, 2); r != nil {
		t.Fatalf("hidden R2 answered: %+v", r)
	}
	// Unlike a blackhole, traffic THROUGH the hidden hop still flows: the
	// hop after it answers, and the destination is reachable.
	if r := echoAt(t, p, addr("10.0.5.2"), 3, 3); r == nil {
		t.Fatal("hop past the hidden router silent; hidden is not blackhole")
	}
	r := echoAt(t, p, addr("10.0.5.2"), 8, 4)
	if r == nil || r.IP.Src != addr("10.0.5.2") {
		t.Fatalf("destination unreachable through hidden hop: %+v", r)
	}
	if fs := n.FaultStats(); fs.HiddenDrops == 0 {
		t.Error("no hidden drops recorded")
	}
}

func TestEchoMirrorsProbedAddress(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if err := n.InstallFaults(FaultPlan{Seed: 2, Faults: []Fault{
		{Kind: FaultEcho, Prob: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// A TTL that should expire mid-path instead fabricates "destination
	// reached" — the phantom-host mint.
	r := echoAt(t, p, addr("10.0.5.2"), 1, 1)
	if r == nil {
		t.Fatal("echo responder silent")
	}
	if r.IP.Src != addr("10.0.5.2") || r.ICMP == nil || r.ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("mid-path echo reply = %+v, want fabricated echo reply from the destination", r)
	}
	// Even an unassigned address springs to life: the router that would
	// have stayed silent mirrors it back.
	ghost := addr("10.0.2.77")
	r = echoAt(t, p, ghost, 8, 2)
	if r == nil {
		t.Fatal("echo responder stayed honest for an unassigned address")
	}
	if r.IP.Src != ghost {
		t.Fatalf("ghost reply from %v, want mirrored %v", r.IP.Src, ghost)
	}
	if fs := n.FaultStats(); fs.EchoMirrors != 2 {
		t.Errorf("EchoMirrors = %d, want 2", fs.EchoMirrors)
	}
}

func TestByzantineStats(t *testing.T) {
	fs := FaultStats{LiarSpoofs: 1, AliasShares: 2, HiddenDrops: 3, EchoMirrors: 4, Corrupted: 10}
	if got := fs.Byzantine(); got != 10 {
		t.Errorf("Byzantine() = %d, want 10", got)
	}
	if got := fs.Total(); got != 20 {
		t.Errorf("Total() = %d, want 20", got)
	}
	for _, k := range []FaultKind{FaultLiar, FaultAliasConfuse, FaultHiddenHop, FaultEcho} {
		if !k.Adversarial() {
			t.Errorf("%v not adversarial", k)
		}
	}
	for _, k := range []FaultKind{FaultLinkFlap, FaultBlackhole, FaultCorrupt, FaultChurn} {
		if k.Adversarial() {
			t.Errorf("%v adversarial", k)
		}
	}
}

func TestUnknownFaultKindNamedError(t *testing.T) {
	var f Fault
	err := json.Unmarshal([]byte(`{"kind": "gremlin"}`), &f)
	if !errors.Is(err, ErrUnknownFaultKind) {
		t.Errorf("decode err = %v, want ErrUnknownFaultKind", err)
	}
	plan := FaultPlan{Faults: []Fault{{Kind: FaultKind(99)}}}
	if err := plan.Validate(); !errors.Is(err, ErrUnknownFaultKind) {
		t.Errorf("validate err = %v, want ErrUnknownFaultKind", err)
	}
}

func TestAdversarialPlanValidation(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"liar prob zero":  {Faults: []Fault{{Kind: FaultLiar}}},
		"echo prob big":   {Faults: []Fault{{Kind: FaultEcho, Prob: 1.5}}},
		"alias bad addr":  {Faults: []Fault{{Kind: FaultAliasConfuse, Addr: "not-an-ip"}}},
		"hidden bad addr": {Faults: []Fault{{Kind: FaultHiddenHop, Router: "R99"}}},
	} {
		if name == "hidden bad addr" {
			// Scope errors surface at install time, not validation.
			n := New(fig3(t), Config{})
			if err := n.InstallFaults(plan); err == nil {
				t.Errorf("%s: installed", name)
			}
			continue
		}
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: plan validated", name)
		}
	}
	good := FaultPlan{Seed: 1, Faults: []Fault{
		{Kind: FaultLiar, Prob: 0.5},
		{Kind: FaultAliasConfuse, Addr: "10.0.3.0"},
		{Kind: FaultAliasConfuse},
		{Kind: FaultHiddenHop, Router: "R2"},
		{Kind: FaultEcho, Prob: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good adversarial plan rejected: %v", err)
	}
}

func TestRandomAdversarialPlanDeterministic(t *testing.T) {
	topo := fig3(t)
	a, b := RandomAdversarialPlan(topo, 7), RandomAdversarialPlan(topo, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed adversarial plans differ:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a, RandomAdversarialPlan(topo, 8)) {
		t.Error("different seeds produced identical adversarial plans")
	}
	for seed := int64(1); seed <= 50; seed++ {
		plan := RandomAdversarialPlan(topo, seed)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(plan.Faults) == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
		for _, f := range plan.Faults {
			if !f.Kind.Adversarial() {
				t.Fatalf("seed %d: non-adversarial kind %v", seed, f.Kind)
			}
		}
		n := New(fig3(t), Config{Seed: seed})
		if err := n.InstallFaults(plan); err != nil {
			t.Fatalf("seed %d: install: %v", seed, err)
		}
	}
}
