package netsim

import (
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

// fig3 builds a topology shaped like the paper's Figure 3: a vantage host V
// behind R1, an ingress router R2, a multi-access subnet S hosting R2 (the
// contra-pivot side), R3, R4 and R6, a close-fringe /31 between R2 and R7, a
// far-fringe /31 between R4 and R5, and a destination host D behind R4.
//
//	V --A-- R1 --P1-- R2 ==S== {R3, R4, R6}
//	                  |T              |F     \DS
//	                  R7              R5      D
func fig3(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")
	r3 := b.Router("R3")
	r4 := b.Router("R4")
	r5 := b.Router("R5")
	r6 := b.Router("R6")
	r7 := b.Router("R7")
	d := b.Host("dest")

	a := b.Subnet("10.0.0.0/30")
	b.Attach(v, a, "10.0.0.1")
	b.Attach(r1, a, "10.0.0.2")

	p1 := b.Subnet("10.0.1.0/31")
	b.Attach(r1, p1, "10.0.1.0")
	b.Attach(r2, p1, "10.0.1.1")

	s := b.Subnet("10.0.2.0/24")
	b.Attach(r2, s, "10.0.2.1") // contra-pivot side
	b.Attach(r3, s, "10.0.2.2")
	b.Attach(r4, s, "10.0.2.3")
	b.Attach(r6, s, "10.0.2.4")

	tt := b.Subnet("10.0.3.0/31")
	b.Attach(r2, tt, "10.0.3.0")
	b.Attach(r7, tt, "10.0.3.1")

	f := b.Subnet("10.0.4.0/31")
	b.Attach(r4, f, "10.0.4.0")
	b.Attach(r5, f, "10.0.4.1")

	ds := b.Subnet("10.0.5.0/30")
	b.Attach(r4, ds, "10.0.5.1")
	b.Attach(d, ds, "10.0.5.2")

	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustPort(t *testing.T, n *Network, host string) *Port {
	t.Helper()
	p, err := n.PortFor(host)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exchange sends one encoded probe and decodes the reply (nil for silence).
func exchange(t *testing.T, p *Port, pkt *wire.Packet) *wire.Packet {
	t.Helper()
	raw, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rawReply, err := p.Exchange(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rawReply == nil {
		return nil
	}
	reply, err := wire.Decode(rawReply)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func addr(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func TestDistances(t *testing.T) {
	n := New(fig3(t), Config{})
	cases := []struct {
		addr string
		want int
	}{
		{"10.0.0.1", 0},   // vantage itself
		{"10.0.0.2", 1},   // R1 access iface
		{"10.0.1.0", 1},   // R1 far iface: same router, same distance
		{"10.0.1.1", 2},   // R2
		{"10.0.2.1", 2},   // R2 contra-pivot iface on S
		{"10.0.3.0", 2},   // R2 iface on T
		{"10.0.2.2", 3},   // R3 on S
		{"10.0.2.3", 3},   // R4 on S
		{"10.0.2.4", 3},   // R6 on S
		{"10.0.3.1", 3},   // R7 close fringe
		{"10.0.4.0", 3},   // R4's far-fringe iface: same router as 10.0.2.3
		{"10.0.4.1", 4},   // R5
		{"10.0.5.2", 4},   // destination host
		{"10.0.2.77", -1}, // unassigned
	}
	for _, c := range cases {
		if got := n.DistanceTo("vantage", addr(c.addr)); got != c.want {
			t.Errorf("DistanceTo(%s) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestEchoReplyFromProbedIface(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.3"), 8, 1, 1))
	if reply == nil || reply.ICMP == nil {
		t.Fatal("no reply")
	}
	if reply.ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("type = %d", reply.ICMP.Type)
	}
	if reply.IP.Src != addr("10.0.2.3") {
		t.Fatalf("probed-interface policy: reply from %v, want 10.0.2.3", reply.IP.Src)
	}
}

func TestTTLExceededIncomingPolicy(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	// TTL 2 toward the destination expires at R2; incoming interface is R2's
	// side of the R1-R2 link.
	reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 2, 1, 1))
	if reply == nil || reply.ICMP == nil || reply.ICMP.Type != wire.ICMPTimeExceeded {
		t.Fatalf("want time-exceeded, got %+v", reply)
	}
	if reply.IP.Src != addr("10.0.1.1") {
		t.Fatalf("incoming policy: reply from %v, want 10.0.1.1", reply.IP.Src)
	}
	// The embedded quote lets the prober match the reply to the probe.
	hdr, _, err := reply.ICMP.EmbeddedOriginal()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Dst != addr("10.0.5.2") || hdr.Src != p.LocalAddr() {
		t.Fatalf("embedded quote = %+v", hdr)
	}
}

func TestTTLExceededShortestPathPolicy(t *testing.T) {
	topo := fig3(t)
	r4 := topo.Routers[4]
	if r4.Name != "R4" {
		t.Fatal("fixture order changed")
	}
	r4.IndirectPolicy = PolicyShortestPath
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	// TTL 3 toward destination expires at R4; shortest path back to the
	// vantage goes out R4's interface on S.
	reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 3, 1, 1))
	if reply == nil || reply.ICMP.Type != wire.ICMPTimeExceeded {
		t.Fatalf("want time-exceeded, got %+v", reply)
	}
	if reply.IP.Src != addr("10.0.2.3") {
		t.Fatalf("shortest-path policy: reply from %v, want 10.0.2.3", reply.IP.Src)
	}
}

func TestTTLExceededDefaultPolicy(t *testing.T) {
	topo := fig3(t)
	r4 := topo.Routers[4]
	r4.IndirectPolicy = PolicyDefault
	r4.DefaultIface = r4.IfaceWithAddr(addr("10.0.4.0"))
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 3, 1, 1))
	if reply == nil || reply.IP.Src != addr("10.0.4.0") {
		t.Fatalf("default policy: got %+v", reply)
	}
}

func TestNilPolicyAnonymous(t *testing.T) {
	topo := fig3(t)
	topo.Routers[4].IndirectPolicy = PolicyNil
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	if reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 3, 1, 1)); reply != nil {
		t.Fatalf("nil policy must be silent, got %+v", reply)
	}
	// The hop beyond still answers: anonymity is per-router.
	if reply := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 4, 1, 1)); reply == nil {
		t.Fatal("destination must still reply")
	}
}

func TestUDPProbePortUnreachable(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	reply := exchange(t, p, wire.NewUDPProbe(p.LocalAddr(), addr("10.0.2.2"), 8, 40000, 33434))
	if reply == nil || reply.ICMP == nil {
		t.Fatal("no reply")
	}
	if reply.ICMP.Type != wire.ICMPDestUnreach || reply.ICMP.Code != wire.CodePortUnreach {
		t.Fatalf("want port-unreachable, got type=%d code=%d", reply.ICMP.Type, reply.ICMP.Code)
	}
}

func TestTCPProbeReset(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	reply := exchange(t, p, wire.NewTCPProbe(p.LocalAddr(), addr("10.0.2.2"), 8, 55000, 80, 77))
	if reply == nil || reply.TCP == nil {
		t.Fatal("no TCP reply")
	}
	if reply.TCP.Flags&wire.TCPFlagRST == 0 {
		t.Fatalf("want RST, flags=%#x", reply.TCP.Flags)
	}
	if reply.IP.Src != addr("10.0.2.2") {
		t.Fatalf("RST from %v, want probed address", reply.IP.Src)
	}
}

func TestProtocolMaskGatesReplies(t *testing.T) {
	topo := fig3(t)
	r2 := topo.Routers[2]
	if r2.Name != "R2" {
		t.Fatal("fixture order changed")
	}
	r2.IndirectProtos = ProtoMaskICMP // no UDP/TCP time-exceeded
	r2.DirectProtos = ProtoMaskICMP
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewUDPProbe(p.LocalAddr(), addr("10.0.5.2"), 2, 40000, 33434)); r != nil {
		t.Fatalf("UDP time-exceeded must be suppressed, got %+v", r)
	}
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 2, 1, 1)); r == nil {
		t.Fatal("ICMP time-exceeded must still work")
	}
	if r := exchange(t, p, wire.NewUDPProbe(p.LocalAddr(), addr("10.0.2.1"), 8, 40000, 33434)); r != nil {
		t.Fatalf("UDP direct reply must be suppressed, got %+v", r)
	}
}

func TestFirewalledSubnetSilent(t *testing.T) {
	topo := fig3(t)
	s := topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.2.0/24"))
	s.Unresponsive = true
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	// Every address in the range is dead, including the ingress router's own
	// interface on the subnet.
	for _, a := range []string{"10.0.2.1", "10.0.2.2", "10.0.2.3", "10.0.2.99"} {
		if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr(a), 8, 1, 1)); r != nil {
			t.Fatalf("probe to firewalled %s answered: %+v", a, r)
		}
	}
	// But transit through the subnet's routers is unaffected.
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 8, 1, 1)); r == nil {
		t.Fatal("destination behind firewalled subnet must still answer (route does not cross the firewall)")
	}
}

func TestUnassignedAddressSilentByDefault(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.200"), 8, 1, 1)); r != nil {
		t.Fatalf("unassigned address answered: %+v", r)
	}
}

func TestUnassignedAddressHostUnreachable(t *testing.T) {
	topo := fig3(t)
	for _, r := range topo.Routers {
		r.EmitUnreachable = true
	}
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.200"), 8, 1, 1))
	if r == nil || r.ICMP == nil || r.ICMP.Type != wire.ICMPDestUnreach || r.ICMP.Code != wire.CodeHostUnreach {
		t.Fatalf("want host-unreachable, got %+v", r)
	}
}

func TestNoRouteSilent(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("172.16.0.1"), 8, 1, 1)); r != nil {
		t.Fatalf("no-route probe answered: %+v", r)
	}
}

func TestUnresponsiveIface(t *testing.T) {
	topo := fig3(t)
	topo.IfaceByAddr(addr("10.0.2.2")).Responsive = false
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 1, 1)); r != nil {
		t.Fatalf("unresponsive interface answered: %+v", r)
	}
	// Its router still answers on other interfaces.
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.3"), 8, 1, 1)); r == nil {
		t.Fatal("responsive sibling must answer")
	}
}

// rateLimit installs a rate storm with no time window on the named router:
// a bucket of burst tokens that never refills, owned by n.
func rateLimit(t *testing.T, n *Network, router string, burst float64) {
	t.Helper()
	plan := FaultPlan{Faults: []Fault{{Kind: FaultRateStorm, Router: router, Rate: 0, Burst: burst}}}
	if err := n.InstallFaults(plan); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimiting(t *testing.T) {
	topo := fig3(t)
	r3 := topo.Routers[3]
	if r3.Name != "R3" {
		t.Fatal("fixture order changed")
	}
	n := New(topo, Config{})
	rateLimit(t, n, "R3", 2)
	p := mustPort(t, n, "vantage")
	answered := 0
	for i := 0; i < 5; i++ {
		if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 1, uint16(i))); r != nil {
			answered++
		}
	}
	if answered != 2 {
		t.Fatalf("rate-limited router answered %d probes, want 2 (burst)", answered)
	}
	if got := n.FaultStats().StormDrops; got != 3 {
		t.Fatalf("storm drops = %d, want 3", got)
	}
	// The bucket is the network's: a second network on the topology starts
	// with a full one.
	n2 := New(topo, Config{})
	rateLimit(t, n2, "R3", 2)
	p2 := mustPort(t, n2, "vantage")
	if r := exchange(t, p2, wire.NewEchoRequest(p2.LocalAddr(), addr("10.0.2.2"), 8, 1, 9)); r == nil {
		t.Fatal("a fresh network's bucket must start full")
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(0.5, 1)
	if !tb.Allow(0) {
		t.Fatal("bucket must start full")
	}
	if tb.Allow(0) {
		t.Fatal("bucket must be empty after burst")
	}
	if tb.Allow(1) {
		t.Fatal("half a token is not enough")
	}
	if !tb.Allow(3) {
		t.Fatal("bucket must refill over time")
	}
	var nilTB *TokenBucket
	if !nilTB.Allow(0) {
		t.Fatal("nil bucket must always allow")
	}
}

func TestLossDropsReplies(t *testing.T) {
	n := New(fig3(t), Config{LossRate: 1})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 1, 1)); r != nil {
		t.Fatalf("lossy network answered: %+v", r)
	}
	if n.Probes != 1 || n.Replies != 0 {
		t.Fatalf("counters probes=%d replies=%d", n.Probes, n.Replies)
	}
}

func TestSelfProbe(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), p.LocalAddr(), 1, 1, 1))
	if r == nil || r.ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("self probe: %+v", r)
	}
}

func TestWrongSourceRejected(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	pkt := wire.NewEchoRequest(addr("10.0.5.2"), addr("10.0.2.2"), 8, 1, 1)
	raw, _ := pkt.Encode()
	if _, err := p.Exchange(raw); err == nil {
		t.Fatal("spoofed source must be rejected")
	}
}

func TestPortForUnknownHost(t *testing.T) {
	n := New(fig3(t), Config{})
	if _, err := n.PortFor("nobody"); err == nil {
		t.Fatal("unknown host must error")
	}
}

// diamond builds two equal-cost paths between R1 and R3 for ECMP tests.
func diamond(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2a := b.Router("R2a")
	r2b := b.Router("R2b")
	r3 := b.Router("R3")
	d := b.Host("dest")

	a := b.Subnet("10.1.0.0/30")
	b.Attach(v, a, "10.1.0.1")
	b.Attach(r1, a, "10.1.0.2")

	up1 := b.Subnet("10.1.1.0/31")
	b.Attach(r1, up1, "10.1.1.0")
	b.Attach(r2a, up1, "10.1.1.1")
	up2 := b.Subnet("10.1.2.0/31")
	b.Attach(r1, up2, "10.1.2.0")
	b.Attach(r2b, up2, "10.1.2.1")

	dn1 := b.Subnet("10.1.3.0/31")
	b.Attach(r2a, dn1, "10.1.3.0")
	b.Attach(r3, dn1, "10.1.3.1")
	dn2 := b.Subnet("10.1.4.0/31")
	b.Attach(r2b, dn2, "10.1.4.0")
	b.Attach(r3, dn2, "10.1.4.1")

	ds := b.Subnet("10.1.5.0/30")
	b.Attach(r3, ds, "10.1.5.1")
	b.Attach(d, ds, "10.1.5.2")

	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hopAt returns the responding address for a TTL-scoped probe with the given
// ICMP flow ID and sequence.
func hopAt(t *testing.T, p *Port, dst ipv4.Addr, ttl uint8, id, seq uint16) ipv4.Addr {
	t.Helper()
	r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), dst, ttl, id, seq))
	if r == nil {
		return ipv4.Zero
	}
	return r.IP.Src
}

func TestECMPPerFlowStable(t *testing.T) {
	n := New(diamond(t), Config{Mode: PerFlow})
	p := mustPort(t, n, "vantage")
	dst := addr("10.1.5.2")
	first := hopAt(t, p, dst, 2, 7, 0)
	if first == ipv4.Zero {
		t.Fatal("no hop-2 reply")
	}
	for seq := uint16(1); seq < 20; seq++ {
		if got := hopAt(t, p, dst, 2, 7, seq); got != first {
			t.Fatalf("per-flow path changed at seq %d: %v vs %v", seq, got, first)
		}
	}
}

func TestECMPDifferentFlowsSpread(t *testing.T) {
	n := New(diamond(t), Config{Mode: PerFlow})
	p := mustPort(t, n, "vantage")
	dst := addr("10.1.5.2")
	seen := map[ipv4.Addr]bool{}
	for id := uint16(0); id < 64; id++ {
		seen[hopAt(t, p, dst, 2, id, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct flows all hashed to one path: %v", seen)
	}
}

func TestECMPPerPacketFluctuates(t *testing.T) {
	n := New(diamond(t), Config{Mode: PerPacket})
	p := mustPort(t, n, "vantage")
	dst := addr("10.1.5.2")
	seen := map[ipv4.Addr]bool{}
	for i := 0; i < 64; i++ {
		seen[hopAt(t, p, dst, 2, 7, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("per-packet balancing never changed path: %v", seen)
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"duplicate address", func(b *Builder) {
			r1, r2 := b.Router("a"), b.Router("b")
			s := b.Subnet("10.0.0.0/29")
			b.Attach(r1, s, "10.0.0.1")
			b.Attach(r2, s, "10.0.0.1")
		}},
		{"address outside subnet", func(b *Builder) {
			r := b.Router("a")
			s := b.Subnet("10.0.0.0/30")
			b.Attach(r, s, "10.0.1.1")
		}},
		{"boundary address", func(b *Builder) {
			r := b.Router("a")
			s := b.Subnet("10.0.0.0/29")
			b.Attach(r, s, "10.0.0.0")
		}},
		{"overlapping subnets", func(b *Builder) {
			r1, r2 := b.Router("a"), b.Router("b")
			s1 := b.Subnet("10.0.0.0/24")
			s2 := b.Subnet("10.0.0.0/25")
			b.Attach(r1, s1, "10.0.0.200")
			b.Attach(r2, s2, "10.0.0.1")
		}},
		{"host with two interfaces", func(b *Builder) {
			h := b.Host("h")
			s1 := b.Subnet("10.0.0.0/30")
			s2 := b.Subnet("10.0.1.0/30")
			b.Attach(h, s1, "10.0.0.1")
			b.Attach(h, s2, "10.0.1.1")
		}},
		{"empty subnet", func(b *Builder) {
			r := b.Router("a")
			s := b.Subnet("10.0.0.0/30")
			b.Attach(r, s, "10.0.0.1")
			b.Subnet("10.0.1.0/30")
		}},
		{"router without interfaces", func(b *Builder) {
			b.Router("a")
			r := b.Router("b")
			s := b.Subnet("10.0.0.0/30")
			b.Attach(r, s, "10.0.0.1")
		}},
		{"duplicate names", func(b *Builder) {
			r := b.Router("a")
			b.Router("a")
			s := b.Subnet("10.0.0.0/30")
			b.Attach(r, s, "10.0.0.1")
		}},
		{"double attach same subnet", func(b *Builder) {
			r := b.Router("a")
			s := b.Subnet("10.0.0.0/29")
			b.Attach(r, s, "10.0.0.1")
			b.Attach(r, s, "10.0.0.2")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder()
			c.build(b)
			if _, err := b.Build(); err == nil {
				t.Fatalf("Build succeeded, want error")
			}
		})
	}
}

func TestAttachNext(t *testing.T) {
	b := NewBuilder()
	r1, r2, r3 := b.Router("a"), b.Router("b"), b.Router("c")
	s := b.Subnet("10.0.0.0/29")
	i1 := b.AttachNext(r1, s)
	i2 := b.AttachNext(r2, s)
	i3 := b.AttachNext(r3, s)
	if i1.Addr != addr("10.0.0.1") || i2.Addr != addr("10.0.0.2") || i3.Addr != addr("10.0.0.3") {
		t.Fatalf("AttachNext addresses: %v %v %v", i1.Addr, i2.Addr, i3.Addr)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachNextSkipsBoundary(t *testing.T) {
	b := NewBuilder()
	s := b.Subnet("10.0.0.0/30")
	r1, r2 := b.Router("a"), b.Router("b")
	if got := b.AttachNext(r1, s).Addr; got != addr("10.0.0.1") {
		t.Fatalf("first = %v", got)
	}
	if got := b.AttachNext(r2, s).Addr; got != addr("10.0.0.2") {
		t.Fatalf("second = %v", got)
	}
	r3 := b.Router("c")
	b.AttachNext(r3, s) // subnet full -> error at Build
	if _, err := b.Build(); err == nil {
		t.Fatal("overfull subnet must fail to build")
	}
}

func TestSubnetLookups(t *testing.T) {
	topo := fig3(t)
	if s := topo.SubnetContaining(addr("10.0.2.77")); s == nil || s.Prefix.Bits() != 24 {
		t.Fatalf("SubnetContaining = %v", s)
	}
	if s := topo.SubnetContaining(addr("192.168.0.1")); s != nil {
		t.Fatalf("SubnetContaining outside = %v", s)
	}
	if s := topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.4.0/31")); s == nil {
		t.Fatal("SubnetByPrefix missed")
	}
	core := topo.CoreSubnets()
	for _, s := range core {
		if s.Prefix == ipv4.MustParsePrefix("10.0.0.0/30") || s.Prefix == ipv4.MustParsePrefix("10.0.5.0/30") {
			t.Fatalf("host access subnet %v in core set", s.Prefix)
		}
	}
	if len(core) != 4 {
		t.Fatalf("core subnets = %d, want 4", len(core))
	}
}

func TestPointToPointClassification(t *testing.T) {
	topo := fig3(t)
	if !topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.4.0/31")).IsPointToPoint() {
		t.Error("/31 must be point-to-point")
	}
	if topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.2.0/24")).IsPointToPoint() {
		t.Error("/24 must not be point-to-point")
	}
}

func TestPolicyAndMaskStrings(t *testing.T) {
	for p, want := range map[ResponsePolicy]string{
		PolicyNil: "nil", PolicyProbed: "probed", PolicyIncoming: "incoming",
		PolicyShortestPath: "shortest-path", PolicyDefault: "default",
	} {
		if p.String() != want {
			t.Errorf("policy %d = %q, want %q", p, p.String(), want)
		}
	}
	if !ProtoMaskAll.Has(wire.ProtoICMP) || !ProtoMaskAll.Has(wire.ProtoUDP) || !ProtoMaskAll.Has(wire.ProtoTCP) {
		t.Error("ProtoMaskAll must admit all protocols")
	}
	if ProtoMaskICMP.Has(wire.ProtoUDP) || ProtoMaskAll.Has(99) {
		t.Error("mask admitted wrong protocol")
	}
}

func TestRecordRouteStamping(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	probePkt := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 8, 1, 1)
	probePkt.IP.Options = wire.MakeRecordRoute(9)
	reply := exchange(t, p, probePkt)
	if reply == nil || reply.ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("reply = %+v", reply)
	}
	// R1, R2, and R4 forward; each stamps its outgoing interface.
	got := wire.RecordedRoute(reply.IP.Options)
	want := []ipv4.Addr{addr("10.0.1.0"), addr("10.0.2.1"), addr("10.0.5.1")}
	if len(got) != len(want) {
		t.Fatalf("stamps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stamp %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecordRouteQuoteReflectsInFlightState(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	probePkt := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 3, 1, 1)
	probePkt.IP.Options = wire.MakeRecordRoute(9)
	reply := exchange(t, p, probePkt)
	if reply == nil || reply.ICMP.Type != wire.ICMPTimeExceeded {
		t.Fatalf("reply = %+v", reply)
	}
	hdr, _, err := reply.ICMP.EmbeddedOriginal()
	if err != nil {
		t.Fatal(err)
	}
	got := wire.RecordedRoute(hdr.Options)
	// Expiry at R4 (hop 3): R1 and R2 stamped before that.
	if len(got) != 2 || got[0] != addr("10.0.1.0") || got[1] != addr("10.0.2.1") {
		t.Fatalf("quoted stamps = %v", got)
	}
	if hdr.TTL != 0 {
		t.Errorf("quoted TTL = %d, want the decremented 0", hdr.TTL)
	}
}

func TestNonCompliantRouterNoStamp(t *testing.T) {
	top := fig3(t)
	for _, r := range top.Routers {
		r.RRCompliant = false
	}
	n := New(top, Config{})
	p := mustPort(t, n, "vantage")
	probePkt := wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 8, 1, 1)
	probePkt.IP.Options = wire.MakeRecordRoute(9)
	reply := exchange(t, p, probePkt)
	if reply == nil {
		t.Fatal("no reply")
	}
	if got := wire.RecordedRoute(reply.IP.Options); len(got) != 0 {
		t.Fatalf("non-compliant network stamped: %v", got)
	}
}

func TestIPIDRandomMode(t *testing.T) {
	top := fig3(t)
	for _, r := range top.Routers {
		if r.Name == "R3" {
			r.IPIDRandom = true
		}
	}
	n := New(top, Config{})
	p := mustPort(t, n, "vantage")
	// Counter routers give consecutive IDs; the random router's sequence
	// must show large jumps somewhere within a handful of replies.
	var last uint16
	jumps := false
	for i := 0; i < 8; i++ {
		r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.2"), 8, 1, uint16(i)))
		if r == nil {
			t.Fatal("no reply")
		}
		if i > 0 {
			if d := r.IP.ID - last; d > 1000 && last-r.IP.ID > 1000 {
				jumps = true
			}
		}
		last = r.IP.ID
	}
	if !jumps {
		t.Fatal("random-ID router produced a counter-like sequence")
	}
}

func TestBuilderBadInputsViaStrings(t *testing.T) {
	// String-based helpers record parse errors for Build to report.
	b := NewBuilder()
	r := b.Router("a")
	s := b.Subnet("not-a-prefix")
	b.Attach(r, s, "not-an-address")
	if _, err := b.Build(); err == nil {
		t.Fatal("builder accepted unparseable inputs")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on an invalid topology did not panic")
		}
	}()
	b := NewBuilder()
	b.Router("lonely") // no interfaces: invalid
	b.MustBuild()
}

func TestPortHostAccessor(t *testing.T) {
	n := New(fig3(t), Config{})
	p := mustPort(t, n, "vantage")
	if p.Host() == nil || p.Host().Name != "vantage" {
		t.Fatalf("Host() = %+v", p.Host())
	}
	if p.Host().Addr() != addr("10.0.0.1") {
		t.Fatalf("Addr() = %v", p.Host().Addr())
	}
	var empty Router
	if !empty.Addr().IsZero() {
		t.Fatal("interface-less router has a non-zero address")
	}
}

func TestStringers(t *testing.T) {
	topo := fig3(t)
	i := topo.IfaceByAddr(addr("10.0.2.2"))
	if got := i.String(); got != "10.0.2.2@R3" {
		t.Fatalf("iface string = %q", got)
	}
	var nilIface *Iface
	if nilIface.String() != "<nil iface>" {
		t.Fatal("nil iface string wrong")
	}
	s := topo.SubnetByPrefix(ipv4.MustParsePrefix("10.0.2.0/24"))
	if s.String() != "10.0.2.0/24" {
		t.Fatalf("subnet string = %q", s.String())
	}
}

func TestUnreachablePolicyGates(t *testing.T) {
	// EmitUnreachable set, but the router's indirect protocols exclude UDP:
	// no unreachable for UDP probes.
	topo := fig3(t)
	for _, r := range topo.Routers {
		r.EmitUnreachable = true
		if r.Name == "R2" {
			r.IndirectProtos = ProtoMaskICMP
		}
	}
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewUDPProbe(p.LocalAddr(), addr("10.0.2.200"), 8, 40000, 33434)); r != nil {
		t.Fatalf("UDP unreachable must be suppressed by the protocol mask: %+v", r)
	}
	// ICMP probes still get the host-unreachable.
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.2.200"), 8, 1, 1)); r == nil {
		t.Fatal("ICMP host-unreachable missing")
	}
	// A nil indirect policy silences unreachables too.
	topo2 := fig3(t)
	for _, r := range topo2.Routers {
		r.EmitUnreachable = true
		if r.Name == "R2" {
			r.IndirectPolicy = PolicyNil
		}
	}
	n2 := New(topo2, Config{})
	p2 := mustPort(t, n2, "vantage")
	if r := exchange(t, p2, wire.NewEchoRequest(p2.LocalAddr(), addr("10.0.2.200"), 8, 1, 1)); r != nil {
		t.Fatalf("nil-policy unreachable leaked: %+v", r)
	}
}

func TestTTLExceededRateLimitGate(t *testing.T) {
	n := New(fig3(t), Config{})
	rateLimit(t, n, "R2", 1)
	p := mustPort(t, n, "vantage")
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 2, 1, 1)); r == nil {
		t.Fatal("first time-exceeded should pass the burst")
	}
	if r := exchange(t, p, wire.NewEchoRequest(p.LocalAddr(), addr("10.0.5.2"), 2, 1, 2)); r != nil {
		t.Fatalf("rate-limited time-exceeded leaked: %+v", r)
	}
}

func TestShortestPathIfaceFallbacks(t *testing.T) {
	topo := fig3(t)
	r4 := topo.Routers[4]
	r4.IndirectPolicy = PolicyShortestPath
	n := New(topo, Config{})
	p := mustPort(t, n, "vantage")
	// Probe from a source the responder has no route context for would fall
	// back to the default interface; the normal case is covered elsewhere —
	// here exercise the "attached to the source's subnet" branch by probing
	// from the destination host (R4 is attached to DS).
	pd, err := n.PortFor("dest")
	if err != nil {
		t.Fatal(err)
	}
	reply := exchange(t, pd, wire.NewEchoRequest(pd.LocalAddr(), addr("10.0.0.1"), 1, 1, 1))
	if reply == nil {
		t.Fatal("no reply")
	}
	// TTL 1 expires at R4, dest's first hop; the shortest path back to dest
	// is R4's own interface on the DS subnet.
	if reply.IP.Src != addr("10.0.5.1") {
		t.Fatalf("shortest-path reply from %v, want 10.0.5.1", reply.IP.Src)
	}
	_ = p
}

func TestUDPFlowKeySpreads(t *testing.T) {
	// flowKey covers UDP/TCP port pairs: two UDP flows with different ports
	// may take different diamond branches.
	n := New(diamond(t), Config{Mode: PerFlow})
	p := mustPort(t, n, "vantage")
	seen := map[ipv4.Addr]bool{}
	for port := uint16(33434); port < 33434+64; port++ {
		pkt := wire.NewUDPProbe(p.LocalAddr(), addr("10.1.5.2"), 2, 40000, port)
		r := exchange(t, p, pkt)
		if r != nil {
			seen[r.IP.Src] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("UDP flows all hashed to one branch: %v", seen)
	}
	// TCP flow key path.
	seenTCP := map[ipv4.Addr]bool{}
	for port := uint16(1024); port < 1024+64; port++ {
		pkt := wire.NewTCPProbe(p.LocalAddr(), addr("10.1.5.2"), 2, port, 80, 1)
		r := exchange(t, p, pkt)
		if r != nil {
			seenTCP[r.IP.Src] = true
		}
	}
	if len(seenTCP) < 2 {
		t.Fatalf("TCP flows all hashed to one branch: %v", seenTCP)
	}
}
