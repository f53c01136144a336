package topomap

import (
	"strings"
	"testing"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

func addr(s string) ipv4.Addr  { return ipv4.MustParseAddr(s) }
func pfx(s string) ipv4.Prefix { return ipv4.MustParsePrefix(s) }

func traceInto(t *testing.T, m *Map, topol *netsim.Topology, vantage, dst string) *core.Result {
	t.Helper()
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor(vantage)
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	res, err := core.Trace(pr, addr(dst), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.AddSession(res)
	return res
}

func TestMapFromFigure3(t *testing.T) {
	m := New()
	traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	if got := len(m.Subnets()); got != 4 {
		t.Fatalf("subnets = %d, want 4:\n%v", got, m)
	}
	if m.AddrCount() < 10 {
		t.Fatalf("addresses = %d, want >= 10", m.AddrCount())
	}
	e := m.SubnetOf(addr("10.0.2.2"))
	if e == nil || e.Prefix != pfx("10.0.2.0/29") {
		t.Fatalf("SubnetOf(10.0.2.2) = %+v", e)
	}
	if !e.OnPath {
		t.Error("multi-access subnet should be on-path")
	}
}

func TestSameLAN(t *testing.T) {
	m := New()
	traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	if !m.SameLAN(addr("10.0.2.2"), addr("10.0.2.4")) {
		t.Error("members of S must share a LAN")
	}
	if m.SameLAN(addr("10.0.2.2"), addr("10.0.1.0")) {
		t.Error("addresses on different subnets reported as same LAN")
	}
	if m.SameLAN(addr("10.0.2.2"), addr("172.16.0.1")) {
		t.Error("unknown address reported on a LAN")
	}
}

func TestLinkDisjointFigure2(t *testing.T) {
	// The paper's Figure 2 question answered through the map: paths A→D and
	// B→C share the R2/R4/R5/R8 LAN even though their traceroute address
	// lists are disjoint.
	topol := topo.Figure2()
	m := New()

	var resAD, resBC *core.Result
	// Steer A→D onto the R1 branch (dual-homed host).
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor("A")
	if err != nil {
		t.Fatal(err)
	}
	for flow := uint16(1); flow <= 64; flow++ {
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, FlowID: flow})
		res, err := core.Trace(pr, addr("10.2.3.1"), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hops) > 0 && res.Hops[0].Addr == addr("10.2.0.2") {
			resAD = res
			break
		}
	}
	if resAD == nil {
		t.Fatal("no flow routed A->D via R1")
	}
	m.AddSession(resAD)
	resBC = traceInto(t, m, topol, "B", "10.2.2.1")

	hopAddrs := func(res *core.Result) []ipv4.Addr {
		var out []ipv4.Addr
		for _, h := range res.Hops {
			if !h.Anonymous() {
				out = append(out, h.Addr)
			}
		}
		return out
	}
	pathAD, pathBC := hopAddrs(resAD), hopAddrs(resBC)

	// Address-wise the paths are disjoint...
	inA := map[ipv4.Addr]bool{}
	for _, a := range pathAD {
		inA[a] = true
	}
	for _, b := range pathBC {
		if inA[b] {
			t.Fatalf("fixture broke: paths share address %v", b)
		}
	}
	// ...but the map knows they share the multi-access LAN.
	disjoint, shared := m.LinkDisjoint(pathAD, pathBC)
	if disjoint {
		t.Fatalf("paths reported link-disjoint; map:\n%v", m)
	}
	found := false
	for _, e := range shared {
		if e.Prefix == pfx("10.2.4.0/29") {
			found = true
		}
	}
	if !found {
		t.Fatalf("shared LAN 10.2.4.0/29 not identified: %v", shared)
	}
}

func TestMergeAcrossSessions(t *testing.T) {
	// Two traces over the same network must deduplicate shared subnets and
	// count observations.
	topol := topo.Figure3()
	m := New()
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	for _, dst := range []string{"10.0.5.2", "10.0.4.1"} {
		// Separate sessions: no SkipKnown reuse between them.
		res, err := core.Trace(pr, addr(dst), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.AddSession(res)
	}
	e := m.SubnetOf(addr("10.0.1.0"))
	if e == nil {
		t.Fatal("R1-R2 link missing")
	}
	if e.Observations != 2 {
		t.Fatalf("observations = %d, want 2", e.Observations)
	}
	// The union of both traces covers the far-fringe link too.
	if m.SubnetOf(addr("10.0.4.1")) == nil {
		t.Fatalf("far link not in map:\n%v", m)
	}
}

func TestOverlappingObservationsReconciled(t *testing.T) {
	m := New()
	// A first campaign underestimates the subnet (/30), a later one sees
	// the full /29: the map keeps one entry with the /29 prefix and the
	// member union.
	m.addSubnet(&core.Subnet{
		Prefix: pfx("10.0.0.0/30"),
		Addrs:  []ipv4.Addr{addr("10.0.0.1"), addr("10.0.0.2")},
	})
	m.addSubnet(&core.Subnet{
		Prefix: pfx("10.0.0.0/29"),
		Addrs:  []ipv4.Addr{addr("10.0.0.2"), addr("10.0.0.5")},
	})
	entries := m.Subnets()
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1 (reconciled)", len(entries))
	}
	e := entries[0]
	if e.Prefix != pfx("10.0.0.0/29") {
		t.Fatalf("prefix = %v, want the larger /29", e.Prefix)
	}
	if len(e.Addrs) != 3 || e.Observations != 2 {
		t.Fatalf("entry = %+v", e)
	}
	// All three members resolve to the same entry.
	if !m.SameLAN(addr("10.0.0.1"), addr("10.0.0.5")) {
		t.Fatal("union membership lost")
	}
}

func TestAdjacentSubnets(t *testing.T) {
	m := New()
	traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	adj := m.AdjacentSubnets()
	if len(adj) < 3 {
		t.Fatalf("adjacencies = %d, want >= 3", len(adj))
	}
	// The access /30 and the R1-R2 /31 are consecutive on the path.
	found := false
	for _, pair := range adj {
		if pair[0].Prefix == pfx("10.0.0.0/30") && pair[1].Prefix == pfx("10.0.1.0/31") {
			found = true
		}
	}
	if !found {
		t.Fatalf("access->backbone adjacency missing: %v", adj)
	}
}

func TestStringRendering(t *testing.T) {
	m := New()
	traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	s := m.String()
	for _, want := range []string{"10.0.2.0/29", "lan", "p2p", "4 subnets"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

func TestAnonymousHopBreaksAdjacency(t *testing.T) {
	topol := topo.Figure3()
	for _, r := range topol.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	m := New()
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
	res, err := core.Trace(pr, addr("10.0.5.2"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.AddSession(res)
	// No adjacency may bridge the anonymous hop 2.
	for _, pair := range m.AdjacentSubnets() {
		if pair[0].Prefix.Contains(addr("10.0.0.2")) && pair[1].Prefix.Contains(addr("10.0.2.3")) {
			t.Fatalf("adjacency bridged an anonymous hop: %v-%v", pair[0].Prefix, pair[1].Prefix)
		}
	}
}

func TestAnonymousRouterResolution(t *testing.T) {
	topol := topo.Figure3()
	for _, r := range topol.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	m := New()
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
	// Two traces through the same anonymous router must merge into one
	// placeholder per neighbour pair.
	for _, dst := range []string{"10.0.5.2", "10.0.5.2"} {
		res, err := core.Trace(pr, addr(dst), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.AddSession(res)
	}
	anons := m.AnonymousRouters()
	if len(anons) != 1 {
		t.Fatalf("anonymous routers = %+v, want exactly one placeholder", anons)
	}
	a := anons[0]
	if a.Prev != addr("10.0.0.2") || a.Observations != 2 {
		t.Fatalf("placeholder = %+v", a)
	}
}

func TestNoAnonymousRoutersOnCleanPath(t *testing.T) {
	m := New()
	traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	if got := m.AnonymousRouters(); len(got) != 0 {
		t.Fatalf("placeholders on a clean path: %+v", got)
	}
}

// sub builds a synthetic observation for merge tests.
func sub(prefix string, addrs ...string) *core.Subnet {
	s := &core.Subnet{Prefix: pfx(prefix)}
	for _, a := range addrs {
		s.Addrs = append(s.Addrs, addr(a))
	}
	return s
}

// TestMergeOverlappingTracesNoDuplicates merges two traces that observed the
// same subnet: the map must hold one row for it, with the membership union
// counted once (the duplicate-row regression this guards against came from
// merging only the first overlapping entry found in random map order).
func TestMergeOverlappingTracesNoDuplicates(t *testing.T) {
	m := New()
	first := traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	second := traceInto(t, m, topo.Figure3(), "vantage", "10.0.5.2")
	if len(first.Subnets) != len(second.Subnets) {
		t.Fatalf("traces disagree: %d vs %d subnets", len(first.Subnets), len(second.Subnets))
	}

	entries := m.Subnets()
	if got := len(entries); got != 4 {
		t.Fatalf("merged map has %d rows, want 4 (no duplicates):\n%v", got, m)
	}
	seen := map[ipv4.Prefix]bool{}
	for _, e := range entries {
		if seen[e.Prefix] {
			t.Fatalf("duplicate row for %v:\n%v", e.Prefix, m)
		}
		seen[e.Prefix] = true
		if e.Observations != 2 {
			t.Errorf("%v observed %d times, want 2", e.Prefix, e.Observations)
		}
		addrSeen := map[ipv4.Addr]bool{}
		for _, a := range e.Addrs {
			if addrSeen[a] {
				t.Errorf("%v double-counts member %v", e.Prefix, a)
			}
			addrSeen[a] = true
		}
		if len(e.Conflicts) != 0 {
			t.Errorf("%v reports conflicts %v for agreeing observations", e.Prefix, e.Conflicts)
		}
	}

	// Address accounting must match a single trace: re-observation adds
	// nothing new.
	single := New()
	traceInto(t, single, topo.Figure3(), "vantage", "10.0.5.2")
	if m.AddrCount() != single.AddrCount() {
		t.Errorf("merged map counts %d addresses, single trace %d", m.AddrCount(), single.AddrCount())
	}
}

// TestMergeLargerPrefixAbsorbsAll checks a large observation absorbs EVERY
// overlapping entry, not just the first found: two /31s under one /29 must
// collapse to a single row keyed by the /29, with a conflict note per
// disagreeing observation.
func TestMergeLargerPrefixAbsorbsAll(t *testing.T) {
	m := New()
	m.AddSubnets([]*core.Subnet{
		sub("10.0.3.0/31", "10.0.3.0", "10.0.3.1"),
		sub("10.0.3.4/31", "10.0.3.4", "10.0.3.5"),
		sub("10.0.3.0/29", "10.0.3.2"),
	})
	entries := m.Subnets()
	if len(entries) != 1 {
		t.Fatalf("map has %d rows, want 1:\n%v", len(entries), m)
	}
	e := entries[0]
	if e.Prefix != pfx("10.0.3.0/29") {
		t.Fatalf("survivor keyed %v, want 10.0.3.0/29", e.Prefix)
	}
	if e.Observations != 3 {
		t.Errorf("observations = %d, want 3", e.Observations)
	}
	want := []string{"10.0.3.0", "10.0.3.1", "10.0.3.2", "10.0.3.4", "10.0.3.5"}
	if len(e.Addrs) != len(want) {
		t.Fatalf("members = %v, want %v", e.Addrs, want)
	}
	for i, a := range want {
		if e.Addrs[i] != addr(a) {
			t.Fatalf("members = %v, want %v", e.Addrs, want)
		}
	}
	if len(e.Conflicts) != 2 {
		t.Fatalf("conflicts = %v, want 2 prefix-length disagreements", e.Conflicts)
	}
	for _, a := range want {
		if got := m.SubnetOf(addr(a)); got != e {
			t.Errorf("SubnetOf(%s) = %v, want the merged entry", a, got)
		}
	}
	if !strings.Contains(m.String(), "conflict: ") {
		t.Errorf("rendered map omits conflict notes:\n%v", m)
	}
}

// TestMergeConflictNoteStableOrder checks the conflict note is identical no
// matter which observation arrives first.
func TestMergeConflictNoteStableOrder(t *testing.T) {
	a := New()
	a.AddSubnets([]*core.Subnet{sub("10.0.3.0/30", "10.0.3.1"), sub("10.0.3.0/29", "10.0.3.2")})
	b := New()
	b.AddSubnets([]*core.Subnet{sub("10.0.3.0/29", "10.0.3.2"), sub("10.0.3.0/30", "10.0.3.1")})
	ea, eb := a.Subnets()[0], b.Subnets()[0]
	if len(ea.Conflicts) != 1 || len(eb.Conflicts) != 1 || ea.Conflicts[0] != eb.Conflicts[0] {
		t.Errorf("conflict notes differ by arrival order: %v vs %v", ea.Conflicts, eb.Conflicts)
	}
}
