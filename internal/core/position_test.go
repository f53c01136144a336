package core

import (
	"testing"

	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

func TestDirectDistanceExact(t *testing.T) {
	pr := prober(t, topo.Chain(6), netsim.Config{}, probe.Options{})
	cases := []struct {
		addr string
		hint int
		want int
	}{
		{"10.9.0.2", 1, 1},   // R1, exact hint
		{"10.9.0.2", 4, 1},   // R1, overshot hint: walk down
		{"10.9.1.3", 1, 3},   // R3's far iface, undershot hint: walk up
		{"10.9.255.2", 7, 7}, // destination
		{"10.9.255.2", 3, 7}, // destination, deep walk up
	}
	for _, c := range cases {
		got, err := directDistance(pr, addr(c.addr), c.hint, 30)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("directDistance(%s, hint %d) = %d, want %d", c.addr, c.hint, got, c.want)
		}
	}
}

func TestDirectDistanceUnreachable(t *testing.T) {
	pr := prober(t, topo.Chain(3), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	got, err := directDistance(pr, addr("172.16.0.1"), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != -1 {
		t.Errorf("unreachable distance = %d, want -1", got)
	}
}

func TestPositionOnPath(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	// v = R4's interface on S obtained at hop 3, u = R2's interface at hop 2.
	pos, err := findPosition(pr, addr("10.0.1.1"), addr("10.0.2.3"), 3, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.ok {
		t.Fatal("positioning failed")
	}
	if !pos.onPath {
		t.Error("subnet S must be on the trace path")
	}
	if pos.pivot != addr("10.0.2.3") || pos.pivotDist != 3 {
		t.Errorf("pivot = %v at %d, want 10.0.2.3 at 3", pos.pivot, pos.pivotDist)
	}
	if pos.ingress != addr("10.0.1.1") {
		t.Errorf("ingress = %v, want 10.0.1.1", pos.ingress)
	}
}

func TestPositionDistanceMismatch(t *testing.T) {
	// Fabricated hop index: v sits at distance 3 but the caller claims 5.
	// Perceived distance wins, and the subnet is flagged off-path.
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	pos, err := findPosition(pr, addr("10.0.1.1"), addr("10.0.2.3"), 5, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.ok {
		t.Fatal("positioning failed")
	}
	if pos.onPath {
		t.Error("distance mismatch must mark the subnet off-path")
	}
	if pos.pivotDist != 3 {
		t.Errorf("pivot distance = %d, want the perceived 3", pos.pivotDist)
	}
}

func TestPositionUnpositionable(t *testing.T) {
	top := topo.Figure3()
	for _, r := range top.Routers {
		if r.Name == "R4" {
			r.DirectPolicy = netsim.PolicyNil
		}
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	pos, err := findPosition(pr, addr("10.0.1.1"), addr("10.0.2.3"), 3, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if pos.ok {
		t.Fatalf("positioning succeeded for a direct-silent interface: %+v", pos)
	}
}

// figure4 builds the paper's Figure 4 scenario: router R3 answers indirect
// probes with its *default* interface R3.s, which sits on a side subnet Sn
// (off the trace path toward the destination). Subnet positioning must
// recognize that the reported interface's /31 mate lies one hop beyond and
// move the pivot there, so the off-path subnet Sn gets explored completely.
func figure4(t *testing.T) *netsim.Topology {
	t.Helper()
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r3 := b.Router("R3")
	r7 := b.Router("R7") // the far side of Sn
	d := b.Host("dest")

	a := b.Subnet("10.4.0.0/30")
	b.Attach(v, a, "10.4.0.1")
	b.Attach(r1, a, "10.4.0.2")

	up := b.Subnet("10.4.1.0/31")
	b.Attach(r1, up, "10.4.1.0")
	b.Attach(r3, up, "10.4.1.1")

	sn := b.Subnet("10.4.2.0/31") // the side subnet Sn
	snIface := b.Attach(r3, sn, "10.4.2.0")
	b.Attach(r7, sn, "10.4.2.1")

	ds := b.Subnet("10.4.3.0/30")
	b.Attach(r3, ds, "10.4.3.1")
	b.Attach(d, ds, "10.4.3.2")

	r3.IndirectPolicy = netsim.PolicyDefault
	r3.DefaultIface = snIface

	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPositionFigure4DefaultInterface(t *testing.T) {
	pr := prober(t, figure4(t), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.4.3.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("not reached:\n%v", res)
	}
	// Hop 2 reports R3's default interface 10.4.2.0 (on Sn).
	if res.Hops[1].Addr != addr("10.4.2.0") {
		t.Fatalf("hop 2 = %v, want the default interface 10.4.2.0", res.Hops[1].Addr)
	}
	sn := res.Hops[1].Subnet
	if sn == nil {
		t.Fatalf("side subnet not explored:\n%v", res)
	}
	// The pivot moved to the far side (the /31 mate, one hop beyond), and
	// both interfaces of Sn were collected.
	if sn.Pivot != addr("10.4.2.1") || sn.PivotDist != 3 {
		t.Errorf("pivot = %v at %d, want 10.4.2.1 at 3", sn.Pivot, sn.PivotDist)
	}
	if !sn.Contains(addr("10.4.2.0")) || !sn.Contains(addr("10.4.2.1")) {
		t.Errorf("Sn members = %v, want both sides", sn.Addrs)
	}
	if sn.Prefix != pfx("10.4.2.0/31") {
		t.Errorf("Sn prefix = %v, want 10.4.2.0/31", sn.Prefix)
	}
}

func TestPositionAfterAnonymousPredecessor(t *testing.T) {
	// u anonymous: the on-path test cannot compare entry routers; the
	// wildcard semantics keep positioning usable.
	top := topo.Figure3()
	for _, r := range top.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	pos, err := findPosition(pr, addr("0.0.0.0"), addr("10.0.2.3"), 3, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.ok {
		t.Fatal("positioning failed with anonymous predecessor")
	}
	if !pos.onPath {
		t.Error("silent predecessor + anonymous u should be treated as on-path")
	}
}
