package core

import (
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
	"tracenet/internal/wire"
)

func addr(s string) ipv4.Addr  { return ipv4.MustParseAddr(s) }
func pfx(s string) ipv4.Prefix { return ipv4.MustParsePrefix(s) }

func prober(t *testing.T, topol *netsim.Topology, cfg netsim.Config, opts probe.Options) *probe.Prober {
	t.Helper()
	n := netsim.New(topol, cfg)
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = true
	return probe.New(port, port.LocalAddr(), opts)
}

// subnetByPrefix finds a collected subnet with the given prefix.
func subnetByPrefix(res *Result, p ipv4.Prefix) *Subnet {
	for _, s := range res.Subnets {
		if s.Prefix == p {
			return s
		}
	}
	return nil
}

func TestTraceFigure3(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("not reached:\n%v", res)
	}
	if len(res.Hops) != 4 {
		t.Fatalf("hops = %d, want 4:\n%v", len(res.Hops), res)
	}

	// Hop 1: the vantage access /30, collected exactly.
	access := subnetByPrefix(res, pfx("10.0.0.0/30"))
	if access == nil {
		t.Fatalf("vantage access /30 not collected:\n%v", res)
	}
	if len(access.Addrs) != 2 {
		t.Fatalf("access subnet members = %v", access.Addrs)
	}

	// Hop 2: the R1–R2 /31, collected exactly with both endpoints.
	link := subnetByPrefix(res, pfx("10.0.1.0/31"))
	if link == nil {
		t.Fatalf("R1-R2 /31 not collected:\n%v", res)
	}
	if !link.Contains(addr("10.0.1.0")) || !link.Contains(addr("10.0.1.1")) {
		t.Fatalf("/31 members = %v", link.Addrs)
	}
	if !link.OnPath {
		t.Error("R1-R2 link must be on-trace-path")
	}
	if !link.PointToPoint() {
		t.Error("/31 must classify as point-to-point")
	}

	// Hop 3: the multi-access subnet S. Only 4 of 254 addresses are
	// utilized, so the half-fill rule stops growth and the subnet comes out
	// underestimated as the covering /29 — with all four members and the
	// contra-pivot identified (paper §4.1.1 explains this class).
	s := subnetByPrefix(res, pfx("10.0.2.0/29"))
	if s == nil {
		t.Fatalf("multi-access subnet not collected:\n%v", res)
	}
	for _, want := range []string{"10.0.2.1", "10.0.2.2", "10.0.2.3", "10.0.2.4"} {
		if !s.Contains(addr(want)) {
			t.Errorf("S misses %s: %v", want, s.Addrs)
		}
	}
	if s.ContraPivot != addr("10.0.2.1") {
		t.Errorf("contra-pivot = %v, want 10.0.2.1", s.ContraPivot)
	}
	if s.Stop != StopHalfFill {
		t.Errorf("stop reason = %v, want half-fill", s.Stop)
	}
	if s.PointToPoint() {
		t.Error("multi-access subnet classified as point-to-point")
	}

	// Fringe interfaces must never leak into S.
	for _, fringe := range []string{"10.0.3.0", "10.0.3.1", "10.0.4.0", "10.0.4.1", "10.0.1.1"} {
		if s.Contains(addr(fringe)) {
			t.Errorf("fringe interface %s leaked into S: %v", fringe, s.Addrs)
		}
	}

	// Hop 4: the destination /30.
	ds := subnetByPrefix(res, pfx("10.0.5.0/30"))
	if ds == nil {
		t.Fatalf("destination /30 not collected:\n%v", res)
	}
	if !ds.Contains(addr("10.0.5.1")) || !ds.Contains(addr("10.0.5.2")) {
		t.Fatalf("destination subnet members = %v", ds.Addrs)
	}

	// tracenet's headline claim: many more addresses than traceroute's four.
	if got := res.AddrCount(); got < 10 {
		t.Errorf("address count = %d, want >= 10 (traceroute finds 4)", got)
	}
}

func TestTraceChainExactP2P(t *testing.T) {
	pr := prober(t, topo.Chain(5), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.9.255.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("not reached")
	}
	// All four /31 backbone links must be collected exactly.
	for i := 2; i <= 5; i++ {
		base := addr("10.9.1.0") + ipv4.Addr((i-2)*2)
		p := ipv4.NewPrefix(base, 31)
		s := subnetByPrefix(res, p)
		if s == nil {
			t.Fatalf("link %v not collected:\n%v", p, res)
		}
		if len(s.Addrs) != 2 {
			t.Fatalf("link %v members = %v", p, s.Addrs)
		}
	}
}

func TestSessionReusesKnownSubnets(t *testing.T) {
	top := topo.Figure3()
	n := netsim.New(top, netsim.Config{})
	port, _ := n.PortFor("vantage")
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := NewSession(pr, Config{})

	if _, err := sess.Trace(addr("10.0.5.2")); err != nil {
		t.Fatal(err)
	}
	probesAfterFirst := pr.Stats().Sent

	// Tracing the far-fringe router reuses every subnet on the shared path
	// prefix; only genuinely new ground costs packets.
	res2, err := sess.Trace(addr("10.0.4.1"))
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, h := range res2.Hops {
		if h.Revisited {
			reused++
		}
	}
	if reused < 2 {
		t.Fatalf("second trace revisited %d hops, want >= 2:\n%v", reused, res2)
	}
	secondCost := pr.Stats().Sent - probesAfterFirst
	if secondCost > probesAfterFirst {
		t.Fatalf("second trace cost %d > first trace %d despite reuse", secondCost, probesAfterFirst)
	}
}

func TestAnonymousHopNoSubnet(t *testing.T) {
	top := topo.Figure3()
	for _, r := range top.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("not reached")
	}
	if !res.Hops[1].Anonymous() || res.Hops[1].Subnet != nil {
		t.Fatalf("anonymous hop mishandled: %+v", res.Hops[1])
	}
	// The hop after the anonymous router must still be explored (H6 treats
	// the anonymous u as a wildcard).
	if res.Hops[2].Subnet == nil {
		t.Fatalf("hop after anonymous router lost its subnet:\n%v", res)
	}
}

func TestUnpositionableHop(t *testing.T) {
	top := topo.Figure3()
	// R2 answers indirect probes but never direct ones: v cannot be
	// positioned, the hop is recorded bare.
	for _, r := range top.Routers {
		if r.Name == "R2" {
			r.DirectPolicy = netsim.PolicyNil
		}
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops[1].Addr != addr("10.0.1.1") {
		t.Fatalf("hop 2 = %v", res.Hops[1].Addr)
	}
	if res.Hops[1].Subnet != nil {
		t.Fatal("unpositionable hop grew a subnet")
	}
}

func TestUnroutableDestinationGivesUp(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("172.16.0.1"), Config{MaxConsecutiveGaps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("unroutable destination reported reached")
	}
	if len(res.Hops) > 6 {
		t.Fatalf("did not give up: %d hops", len(res.Hops))
	}
}

func TestBudgetErrorPropagates(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{SharedBudget: probe.NewSharedBudget(5), Retry: &probe.RetryPolicy{}})
	if _, err := Trace(pr, addr("10.0.5.2"), Config{}); err == nil {
		t.Fatal("budget exhaustion must surface as an error")
	}
}

func TestProbeAccounting(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceProbes == 0 || res.PositionProbes == 0 || res.ExploreProbes == 0 {
		t.Fatalf("phase accounting empty: %+v", res)
	}
	if res.TotalProbes() != res.TraceProbes+res.PositionProbes+res.ExploreProbes {
		t.Fatal("TotalProbes inconsistent")
	}
	if res.TotalProbes() != pr.Stats().Sent {
		t.Fatalf("accounted %d != sent %d", res.TotalProbes(), pr.Stats().Sent)
	}
}

// loopTransport always answers TTL-scoped probes with a time-exceeded from
// one fixed address — the signature of a forwarding loop.
type loopTransport struct {
	src, router ipv4.Addr
}

func (l loopTransport) Exchange(raw []byte) ([]byte, error) {
	req, err := wire.Decode(raw)
	if err != nil {
		return nil, err
	}
	rep := wire.NewICMPError(l.router, wire.ICMPTimeExceeded, wire.CodeTTLExceeded, raw)
	_ = req
	out, err := rep.Encode()
	return out, err
}

func TestRoutingLoopGuard(t *testing.T) {
	src := addr("10.0.0.1")
	router := addr("10.0.9.9")
	pr := probe.New(loopTransport{src: src, router: router}, src, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("looping path reported reached")
	}
	// The session must stop as soon as the same interface answers a second
	// trace-collection probe, not run to MaxTTL.
	if len(res.Hops) > 3 {
		t.Fatalf("loop guard did not fire: %d hops", len(res.Hops))
	}
}

func TestSessionAccessors(t *testing.T) {
	top := topo.Figure3()
	n := netsim.New(top, netsim.Config{})
	port, _ := n.PortFor("vantage")
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := NewSession(pr, Config{})
	if sess.Prober() != pr {
		t.Fatal("Prober accessor broken")
	}
	if _, err := sess.Trace(addr("10.0.5.2")); err != nil {
		t.Fatal(err)
	}
	stats := sess.StopStats()
	total := 0
	for reason, n := range stats {
		if reason == StopNone {
			t.Errorf("unterminated growth: %d", n)
		}
		total += n
	}
	if total != len(sess.Subnets()) {
		t.Fatalf("stop stats cover %d of %d subnets", total, len(sess.Subnets()))
	}
}

func TestResultStringRendering(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if header := "tracenet to 10.0.5.2 (4 hops, reached=true)\n"; !strings.HasPrefix(out, header) {
		t.Errorf("rendering does not start with %q:\n%s", header, out)
	}
	if !strings.Contains(out, "subnet 10.0.2.0/29") {
		t.Errorf("rendering lacks the LAN subnet:\n%s", out)
	}
	// Anonymous hop rendering.
	top := topo.Figure3()
	for _, r := range top.Routers {
		if r.Name == "R2" {
			r.IndirectPolicy = netsim.PolicyNil
		}
	}
	pr2 := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res2, err := Trace(pr2, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.String(), "*") {
		t.Error("anonymous hop not rendered")
	}
	// Revisited marker.
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, _ := n.PortFor("vantage")
	pr3 := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := NewSession(pr3, Config{})
	if _, err := sess.Trace(addr("10.0.5.2")); err != nil {
		t.Fatal(err)
	}
	res3, err := sess.Trace(addr("10.0.4.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res3.String(), "revisited") {
		t.Errorf("revisited marker missing:\n%v", res3)
	}
}

func TestSubnetStringAnnotations(t *testing.T) {
	pr := prober(t, topo.Figure3(), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.0.5.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := subnetByPrefix(res, pfx("10.0.2.0/29"))
	out := s.String()
	for _, want := range []string{"(pivot)", "(contra)", "at hop 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("subnet rendering lacks %q: %s", want, out)
		}
	}
}

func TestFarSideMateFallsBackToMate30(t *testing.T) {
	// A /30 link where the router reports the NEAR side: the /31 mate of the
	// near address is the unused .0/.3 pair, so positioning must fall back
	// to the /30 mate to find the far-side pivot.
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r3 := b.Router("R3")
	r7 := b.Router("R7")
	d := b.Host("dest")
	a := b.Subnet("10.4.0.0/30")
	b.Attach(v, a, "10.4.0.1")
	b.Attach(r1, a, "10.4.0.2")
	up := b.Subnet("10.4.1.0/31")
	b.Attach(r1, up, "10.4.1.0")
	b.Attach(r3, up, "10.4.1.1")
	sn := b.Subnet("10.4.2.0/30") // /30 side subnet: near .1 (R3), far .2 (R7)
	snIface := b.Attach(r3, sn, "10.4.2.1")
	b.Attach(r7, sn, "10.4.2.2")
	ds := b.Subnet("10.4.3.0/30")
	b.Attach(r3, ds, "10.4.3.1")
	b.Attach(d, ds, "10.4.3.2")
	r3.IndirectPolicy = netsim.PolicyDefault
	r3.DefaultIface = snIface
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.4.3.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sn2 *Subnet
	for _, s := range res.Subnets {
		if s.Prefix.Contains(addr("10.4.2.1")) {
			sn2 = s
		}
	}
	if sn2 == nil {
		t.Fatalf("side /30 not collected:\n%v", res)
	}
	if sn2.Pivot != addr("10.4.2.2") || sn2.PivotDist != 3 {
		t.Errorf("pivot = %v at %d, want the /30 mate 10.4.2.2 at 3", sn2.Pivot, sn2.PivotDist)
	}
	if sn2.Prefix != pfx("10.4.2.0/30") {
		t.Errorf("prefix = %v, want 10.4.2.0/30", sn2.Prefix)
	}
}

func TestDirectDistanceHintClamp(t *testing.T) {
	// Hint below 1 is clamped rather than rejected.
	pr := prober(t, topo.Chain(3), netsim.Config{}, probe.Options{})
	got, err := directDistance(pr, addr("10.9.0.2"), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("distance = %d, want 1", got)
	}
}

func TestExplorationAtTopOfAddressSpace(t *testing.T) {
	// A subnet at the very top of the IPv4 space: exploration's growth
	// arithmetic must not wrap past 255.255.255.255.
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")
	d := b.Host("dest")
	a := b.Subnet("10.0.0.0/30")
	b.Attach(v, a, "10.0.0.1")
	b.Attach(r1, a, "10.0.0.2")
	up := b.Subnet("255.255.255.240/31")
	b.Attach(r1, up, "255.255.255.240")
	b.Attach(r2, up, "255.255.255.241")
	ds := b.Subnet("255.255.255.252/30")
	b.Attach(r2, ds, "255.255.255.253")
	b.Attach(d, ds, "255.255.255.254")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("255.255.255.254"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("not reached:\n%v", res)
	}
	s := subnetByPrefix(res, pfx("255.255.255.252/30"))
	if s == nil || len(s.Addrs) != 2 {
		t.Fatalf("top-of-space subnet = %+v\n%v", s, res)
	}
}

func TestHostUnreachableEndsTrace(t *testing.T) {
	top := topo.Figure3()
	for _, r := range top.Routers {
		r.EmitUnreachable = true
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	// 10.0.2.200 is covered by S but unassigned: the ingress router reports
	// host-unreachable and the trace ends there.
	res, err := Trace(pr, addr("10.0.2.200"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("unassigned target reported reached")
	}
	last := res.Hops[len(res.Hops)-1]
	if last.Kind != probe.HostUnreachable {
		t.Fatalf("terminal hop kind = %v, want host-unreachable", last.Kind)
	}
	if len(res.Hops) > 4 {
		t.Fatalf("trace did not stop at the unreachable: %d hops", len(res.Hops))
	}
}

func TestMaxTTLTruncatesSession(t *testing.T) {
	pr := prober(t, topo.Chain(10), netsim.Config{}, probe.Options{})
	res, err := Trace(pr, addr("10.9.255.2"), Config{MaxTTL: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached || len(res.Hops) != 4 {
		t.Fatalf("maxTTL session: reached=%v hops=%d", res.Reached, len(res.Hops))
	}
	// The subnets of the visited hops are still collected.
	if len(res.Subnets) < 3 {
		t.Fatalf("subnets = %d", len(res.Subnets))
	}
}
