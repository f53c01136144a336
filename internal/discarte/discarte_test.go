package discarte

import (
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
	"tracenet/internal/trace"
)

func addr(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func prober(t *testing.T, topol *netsim.Topology, opts probe.Options) *probe.Prober {
	t.Helper()
	n := netsim.New(topol, netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	opts.RecordRoute = true
	return probe.New(port, port.LocalAddr(), opts)
}

func TestTwoAddressesPerHop(t *testing.T) {
	p := prober(t, topo.Figure3(), probe.Options{Cache: true})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatalf("not reached:\n%v", route)
	}
	// Hop 1 (R1): responder 10.0.0.2 (incoming), stamp 10.0.1.0 (outgoing
	// toward R2) — the paper's "two IP addresses per hop".
	h1 := route.Hops[0]
	if h1.Addr != addr("10.0.0.2") {
		t.Errorf("hop 1 responder = %v", h1.Addr)
	}
	if h1.Stamped != addr("10.0.1.0") {
		t.Errorf("hop 1 stamp = %v, want R1's outgoing 10.0.1.0", h1.Stamped)
	}
	// Hop 2 (R2): responder 10.0.1.1, stamp = R2's iface onto S.
	h2 := route.Hops[1]
	if h2.Addr != addr("10.0.1.1") || h2.Stamped != addr("10.0.2.1") {
		t.Errorf("hop 2 = %+v, want responder 10.0.1.1 stamp 10.0.2.1", h2)
	}
}

func TestMoreThanTracerouteLessThanTracenet(t *testing.T) {
	top := topo.Figure3()
	// Plain traceroute.
	pPlain := func() *probe.Prober {
		n := netsim.New(top, netsim.Config{})
		port, _ := n.PortFor("vantage")
		return probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	}()
	plain, err := trace.Run(pPlain, addr("10.0.5.2"), trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Record-route trace.
	p := prober(t, top, probe.Options{Cache: true})
	rr, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Addrs()) <= len(plain.Addrs()) {
		t.Fatalf("record route found %d addrs, plain traceroute %d — expected more",
			len(rr.Addrs()), len(plain.Addrs()))
	}
	// But still far from tracenet's 10 (see core tests): the stamps add the
	// outgoing interfaces only, never the other LAN members.
	if len(rr.Addrs()) >= 10 {
		t.Fatalf("record route found %d addrs, should be below tracenet's coverage", len(rr.Addrs()))
	}
}

func TestNonCompliantRoutersSkipStamps(t *testing.T) {
	top := topo.Figure3()
	for _, r := range top.Routers {
		if r.Name == "R1" {
			r.RRCompliant = false
		}
	}
	p := prober(t, top, probe.Options{Cache: true})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// R1 never stamps, and since stamps are positional the slot sequence
	// starts at R2's outgoing interface instead.
	if route.Hops[0].Stamped != addr("10.0.2.1") {
		t.Errorf("hop 1 stamp = %v; non-compliant R1 should leave R2's stamp first", route.Hops[0].Stamped)
	}
}

func TestNineSlotLimit(t *testing.T) {
	p := prober(t, topo.Chain(14), probe.Options{Cache: true})
	route, err := Run(p, addr("10.9.255.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !route.Reached {
		t.Fatal("not reached")
	}
	stamped := 0
	for _, h := range route.Hops {
		if !h.Stamped.IsZero() {
			stamped++
		}
	}
	if stamped != 9 {
		t.Fatalf("stamped hops = %d, want the RR option's 9-slot limit", stamped)
	}
}

func TestRendering(t *testing.T) {
	p := prober(t, topo.Figure3(), probe.Options{Cache: true})
	route, err := Run(p, addr("10.0.5.2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := route.String()
	for _, want := range []string{"discarte trace", "in 10.0.0.2", "out 10.0.1.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

func TestUnroutableGivesUp(t *testing.T) {
	p := prober(t, topo.Figure3(), probe.Options{Retry: &probe.RetryPolicy{}})
	route, err := Run(p, addr("172.16.0.1"), Options{MaxConsecutiveGaps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if route.Reached || len(route.Hops) > 6 {
		t.Fatalf("unroutable trace: %+v", route)
	}
}
