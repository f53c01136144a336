package topo

import (
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
)

func addr(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func TestFigure3Shape(t *testing.T) {
	top := Figure3()
	if len(top.Subnets) != 6 {
		t.Fatalf("subnets = %d, want 6", len(top.Subnets))
	}
	if len(top.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2", len(top.Hosts))
	}
	s := top.SubnetByPrefix(ipv4.MustParsePrefix("10.0.2.0/24"))
	if s == nil || len(s.Ifaces) != 4 {
		t.Fatalf("multi-access subnet wrong: %+v", s)
	}
	n := netsim.New(top, netsim.Config{})
	if d := n.DistanceTo("vantage", addr("10.0.5.2")); d != 4 {
		t.Fatalf("destination distance = %d, want 4", d)
	}
}

func TestChainShape(t *testing.T) {
	for _, k := range []int{1, 2, 5, 12} {
		top := Chain(k)
		n := netsim.New(top, netsim.Config{})
		want := k + 1 // k routers + the final delivery hop to the dest host
		if d := n.DistanceTo("vantage", addr("10.9.255.2")); d != want {
			t.Errorf("Chain(%d): dest distance = %d, want %d", k, d, want)
		}
	}
}

func TestFigure2SharedLANDistances(t *testing.T) {
	top := Figure2()
	n := netsim.New(top, netsim.Config{})
	// The shared LAN members sit 2–3 hops from A. Routing targets the
	// subnet, so a packet for R2's LAN interface may enter through R4 and
	// cross the LAN (3 hops) or arrive directly through R1 (2 hops),
	// depending on the flow hash.
	for _, c := range []struct {
		a        string
		min, max int
	}{
		{"10.2.4.1", 2, 3}, // R2: via R1, or via R3-R4 across the LAN
		{"10.2.4.2", 2, 3}, // R4: via R3, or via R1-R2 across the LAN
		{"10.2.4.3", 3, 3}, // R5
		{"10.2.4.4", 3, 3}, // R8
	} {
		if d := n.DistanceTo("A", addr(c.a)); d < c.min || d > c.max {
			t.Errorf("DistanceTo(A, %s) = %d, want %d..%d", c.a, d, c.min, c.max)
		}
	}
	// ...and the same LAN is on B's paths to C.
	if d := n.DistanceTo("B", addr("10.2.2.1")); d != 5 {
		t.Errorf("DistanceTo(B, C) = %d, want 5", d)
	}
}

func TestInternet2GroundTruth(t *testing.T) {
	r := Internet2()
	if len(r.Originals) != 179 {
		t.Fatalf("originals = %d, want 179", len(r.Originals))
	}
	perBits := map[int]int{}
	unresponsive := 0
	partial := 0
	for _, o := range r.Originals {
		perBits[o.Prefix.Bits()]++
		if o.TotallyUnresponsive {
			unresponsive++
		}
		if o.PartiallyUnresponsive {
			partial++
		}
	}
	want := map[int]int{24: 6, 25: 1, 27: 2, 28: 26, 29: 20, 30: 101, 31: 23}
	for bits, n := range want {
		if perBits[bits] != n {
			t.Errorf("/%d count = %d, want %d", bits, perBits[bits], n)
		}
	}
	if unresponsive != 21 {
		t.Errorf("totally unresponsive = %d, want 21", unresponsive)
	}
	if partial != 19 {
		t.Errorf("partially unresponsive = %d, want 19", partial)
	}
	if len(r.Targets()) != 179 {
		t.Errorf("targets = %d, want one per original", len(r.Targets()))
	}
}

func TestGEANTGroundTruth(t *testing.T) {
	r := GEANT()
	if len(r.Originals) != 271 {
		t.Fatalf("originals = %d, want 271", len(r.Originals))
	}
	perBits := map[int]int{}
	for _, o := range r.Originals {
		perBits[o.Prefix.Bits()]++
	}
	want := map[int]int{28: 24, 29: 109, 30: 138}
	for bits, n := range want {
		if perBits[bits] != n {
			t.Errorf("/%d count = %d, want %d", bits, perBits[bits], n)
		}
	}
}

func TestResearchOriginalsMatchTopology(t *testing.T) {
	for _, r := range []*Research{Internet2(), GEANT()} {
		for _, o := range r.Originals {
			s := r.Topo.SubnetByPrefix(o.Prefix)
			if s == nil {
				t.Errorf("%s: original %v has no subnet in the topology", r.Name, o.Prefix)
				continue
			}
			if o.TotallyUnresponsive != s.Unresponsive {
				t.Errorf("%s: %v unresponsive flag mismatch", r.Name, o.Prefix)
			}
			if !o.Prefix.Contains(o.Target) {
				t.Errorf("%s: target %v outside its subnet %v", r.Name, o.Target, o.Prefix)
			}
		}
	}
}

func TestResearchAllTargetsRoutable(t *testing.T) {
	r := Internet2()
	n := netsim.New(r.Topo, netsim.Config{})
	reachable := 0
	for _, o := range r.Originals {
		if o.TotallyUnresponsive {
			continue
		}
		if d := n.DistanceTo("vantage", o.Target); d > 0 {
			reachable++
		}
	}
	// Every responsive, assigned target must be reachable; sparse subnets
	// with deliberately unassigned targets are the only exceptions.
	unassigned := 0
	for _, o := range r.Originals {
		if !o.TotallyUnresponsive && r.Topo.IfaceByAddr(o.Target) == nil {
			unassigned++
		}
	}
	want := len(r.Originals) - 21 - unassigned
	if reachable != want {
		t.Fatalf("reachable targets = %d, want %d", reachable, want)
	}
}

func TestISPCoresStructure(t *testing.T) {
	sc := ISPCores(7, 1007)
	if len(sc.Topo.Hosts) != 3 {
		t.Fatalf("hosts = %d, want 3 vantage points", len(sc.Topo.Hosts))
	}
	for _, p := range sc.Profiles {
		if len(sc.Targets[p.Name]) == 0 {
			t.Errorf("%s has no targets", p.Name)
		}
		for _, target := range sc.Targets[p.Name] {
			if !p.Block.Contains(target) {
				t.Errorf("%s target %v outside block %v", p.Name, target, p.Block)
			}
		}
	}
}

func TestISPCoresDeterministicStructure(t *testing.T) {
	a := ISPCores(7, 1)
	b := ISPCores(7, 2)
	// Different campaign seeds must not change the structure: same subnets,
	// same addresses, same targets.
	if len(a.Topo.Subnets) != len(b.Topo.Subnets) || len(a.Topo.Routers) != len(b.Topo.Routers) {
		t.Fatalf("structure differs across campaigns: %d/%d subnets, %d/%d routers",
			len(a.Topo.Subnets), len(b.Topo.Subnets), len(a.Topo.Routers), len(b.Topo.Routers))
	}
	ta, tb := a.TargetsFor(), b.TargetsFor()
	if len(ta) != len(tb) {
		t.Fatalf("target counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("target %d differs: %v vs %v", i, ta[i], tb[i])
		}
	}
	// But the campaign flaky draws must differ somewhere.
	differs := false
	for i := range a.Topo.Routers {
		if a.Topo.Routers[i].DirectPolicy != b.Topo.Routers[i].DirectPolicy {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("campaign seeds produced identical flaky sets")
	}
}

func TestISPCoresVantageIsolation(t *testing.T) {
	// Vantage v's peering and entry-chain subnets must be unreachable as
	// transit for other vantages' traffic — they only appear on v's paths.
	sc := ISPCores(7, 1007)
	n := netsim.New(sc.Topo, netsim.Config{})
	// Distance from each vantage to the first Sprint target must exist.
	for _, v := range VantageNames {
		if d := n.DistanceTo(v, sc.Targets["SprintLink"][len(sc.Targets["SprintLink"])-30]); d <= 0 {
			t.Errorf("vantage %s cannot reach SprintLink targets", v)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, ta := Random(RandomSpec{Seed: 5})
	b, tb := Random(RandomSpec{Seed: 5})
	if len(a.Subnets) != len(b.Subnets) || len(ta) != len(tb) {
		t.Fatal("same seed produced different topologies")
	}
	c, _ := Random(RandomSpec{Seed: 6})
	if len(a.Subnets) == len(c.Subnets) {
		// Sizes can coincide; compare subnet sets.
		same := true
		for i := range a.Subnets {
			if a.Subnets[i].Prefix != c.Subnets[i].Prefix {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical topologies")
		}
	}
}

func TestRandomConnected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		top, targets := Random(RandomSpec{Seed: seed})
		n := netsim.New(top, netsim.Config{})
		for _, target := range targets {
			if top.IfaceByAddr(target) == nil {
				t.Errorf("seed %d: target %v unassigned", seed, target)
				continue
			}
			if s := top.SubnetContaining(target); s != nil && s.Unresponsive {
				continue // firewalled targets are intentionally dark
			}
			if d := n.DistanceTo("vantage", target); d <= 0 {
				t.Errorf("seed %d: target %v unreachable", seed, target)
			}
		}
	}
}
