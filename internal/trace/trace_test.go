package trace

import (
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

func addr(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func prober(t *testing.T, topol *netsim.Topology, cfg netsim.Config, opts probe.Options) *probe.Prober {
	t.Helper()
	n := netsim.New(topol, cfg)
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	return probe.New(port, port.LocalAddr(), opts)
}

func TestTracerouteFigure3(t *testing.T) {
	p := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatalf("destination not reached: %v", route)
	}
	want := []ipv4.Addr{
		addr("10.0.0.2"), // R1 (incoming iface)
		addr("10.0.1.1"), // R2
		addr("10.0.2.3"), // R4 enters via S
		addr("10.0.5.2"), // destination echo
	}
	got := route.Addrs()
	if len(got) != len(want) {
		t.Fatalf("hops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hop %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Traceroute sees exactly one address per hop: the whole point of the
	// paper is everything it misses (10.0.2.1/.2/.4, subnet masks, ...).
	if len(got) != 4 {
		t.Fatalf("traceroute returned %d addresses", len(got))
	}
}

func TestTracerouteChainLength(t *testing.T) {
	p := prober(t, topo.Chain(6), netsim.Config{}, probe.Options{})
	route, err := Run(p, addr("10.9.255.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached || len(route.Hops) != 7 {
		t.Fatalf("chain-6 trace: reached=%v hops=%d", route.Reached, len(route.Hops))
	}
}

func TestTracerouteAnonymousHop(t *testing.T) {
	top := topo.Figure3()
	// Make R2 anonymous for indirect probes.
	for _, r := range top.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	p := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatal("not reached")
	}
	if !route.Hops[1].Anonymous() {
		t.Fatalf("hop 2 should be anonymous: %+v", route.Hops[1])
	}
	if s := route.String(); !strings.Contains(s, "*") {
		t.Fatalf("rendering lacks anonymous marker:\n%s", s)
	}
}

func TestTracerouteGivesUpAfterGaps(t *testing.T) {
	p := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	// 172.16.0.1 has no route: every hop beyond the first is silent.
	route, err := Run(p, addr("172.16.0.1"), Options{MaxConsecutiveGaps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if route.Reached {
		t.Fatal("unroutable destination reported reached")
	}
	if len(route.Hops) > 6 {
		t.Fatalf("trace did not give up: %d hops", len(route.Hops))
	}
}

func TestTracerouteMaxTTL(t *testing.T) {
	top := topo.Chain(12)
	// Destination never answers: direct probes blocked.
	for _, h := range top.Hosts {
		if h.Name == "dest" {
			h.DirectPolicy = netsim.PolicyNil
		}
	}
	p := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	route, err := Run(p, addr("10.9.255.2"), Options{MaxTTL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if route.Reached || len(route.Hops) != 5 {
		t.Fatalf("maxTTL trace: reached=%v hops=%d", route.Reached, len(route.Hops))
	}
}

func TestTracerouteUDP(t *testing.T) {
	p := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{Protocol: probe.UDP})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatal("UDP trace did not reach destination")
	}
	last := route.Hops[len(route.Hops)-1]
	if last.Kind != probe.PortUnreachable {
		t.Fatalf("UDP terminal hop kind = %v", last.Kind)
	}
}

func TestParisVsClassicUnderLoadBalancing(t *testing.T) {
	// Under per-flow ECMP, a Paris-style prober (stable flow) sees a stable
	// path on every run, while a classic UDP prober (varying destination
	// port) can see a mix of the two equal-cost branches.
	build := func() *netsim.Topology {
		b := netsim.NewBuilder()
		v := b.Host("vantage")
		r1 := b.Router("R1")
		r2a := b.Router("R2a")
		r2b := b.Router("R2b")
		r3 := b.Router("R3")
		d := b.Host("dest")
		a := b.Subnet("10.1.0.0/30")
		b.Attach(v, a, "10.1.0.1")
		b.Attach(r1, a, "10.1.0.2")
		for i, r := range []*netsim.Router{r2a, r2b} {
			up := b.SubnetP(ipv4.NewPrefix(addr("10.1.1.0")+ipv4.Addr(2*i), 31))
			b.AttachA(r1, up, up.Prefix.Base())
			b.AttachA(r, up, up.Prefix.Base()+1)
			dn := b.SubnetP(ipv4.NewPrefix(addr("10.1.2.0")+ipv4.Addr(2*i), 31))
			b.AttachA(r, dn, dn.Prefix.Base())
			b.AttachA(r3, dn, dn.Prefix.Base()+1)
		}
		ds := b.Subnet("10.1.5.0/30")
		b.Attach(r3, ds, "10.1.5.1")
		b.Attach(d, ds, "10.1.5.2")
		return b.MustBuild()
	}

	hop2 := func(opts probe.Options) map[ipv4.Addr]bool {
		seen := map[ipv4.Addr]bool{}
		for run := 0; run < 32; run++ {
			opts.FlowID = uint16(run + 1)
			p := prober(t, build(), netsim.Config{Mode: netsim.PerFlow}, opts)
			route, err := Run(p, addr("10.1.5.2"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(route.Hops) >= 2 && !route.Hops[1].Anonymous() {
				seen[route.Hops[1].Addr] = true
			}
		}
		return seen
	}

	classic := hop2(probe.Options{Protocol: probe.UDP, VaryFlow: true})
	if len(classic) < 2 {
		t.Fatalf("classic UDP should observe both branches across flows, saw %v", classic)
	}
	paris := map[ipv4.Addr]bool{}
	p := prober(t, build(), netsim.Config{Mode: netsim.PerFlow}, probe.Options{Protocol: probe.ICMP})
	for run := 0; run < 16; run++ {
		route, err := Run(p, addr("10.1.5.2"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		paris[route.Hops[1].Addr] = true
	}
	if len(paris) != 1 {
		t.Fatalf("Paris-style trace must keep a single stable path, saw %v", paris)
	}
}

func TestProbesPerHopCollectsResponders(t *testing.T) {
	// Classic traceroute sends three probes per hop; under per-packet load
	// balancing a hop answers with several addresses, all recorded.
	build := func() *netsim.Topology {
		b := netsim.NewBuilder()
		v := b.Host("vantage")
		r1 := b.Router("R1")
		r2a := b.Router("R2a")
		r2b := b.Router("R2b")
		r3 := b.Router("R3")
		d := b.Host("dest")
		a := b.Subnet("10.1.0.0/30")
		b.Attach(v, a, "10.1.0.1")
		b.Attach(r1, a, "10.1.0.2")
		for i, r := range []*netsim.Router{r2a, r2b} {
			up := b.SubnetP(ipv4.NewPrefix(addr("10.1.1.0")+ipv4.Addr(2*i), 31))
			b.AttachA(r1, up, up.Prefix.Base())
			b.AttachA(r, up, up.Prefix.Base()+1)
			dn := b.SubnetP(ipv4.NewPrefix(addr("10.1.2.0")+ipv4.Addr(2*i), 31))
			b.AttachA(r, dn, dn.Prefix.Base())
			b.AttachA(r3, dn, dn.Prefix.Base()+1)
		}
		ds := b.Subnet("10.1.5.0/30")
		b.Attach(r3, ds, "10.1.5.1")
		b.Attach(d, ds, "10.1.5.2")
		return b.MustBuild()
	}
	p := prober(t, build(), netsim.Config{Mode: netsim.PerPacket, Seed: 3}, probe.Options{})
	route, err := Run(p, addr("10.1.5.2"), Options{ProbesPerHop: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatal("not reached")
	}
	if len(route.Hops) < 2 {
		t.Fatalf("hops = %d", len(route.Hops))
	}
	if got := len(route.Hops[1].Responders); got < 2 {
		t.Fatalf("hop 2 responders = %v, want both equal-cost branches", route.Hops[1].Responders)
	}
}

func TestProbesPerHopStillOneAddrPerHop(t *testing.T) {
	// On a stable path, extra probes change nothing.
	p := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	route, err := Run(p, addr("10.0.5.2"), Options{ProbesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatal("not reached")
	}
	for _, h := range route.Hops {
		if len(h.Responders) != 1 {
			t.Fatalf("hop %d responders = %v, want exactly 1", h.TTL, h.Responders)
		}
	}
}
