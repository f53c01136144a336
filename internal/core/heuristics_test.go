package core

import (
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// fringeScene builds the common scaffold for the per-heuristic tests:
//
//	vantage --/30-- R1 --/31-- R2 ==S== {m3..m6, dest-router}
//
// S is 10.7.0.0/29 with six members (.1 on R2 = contra-pivot side, .2–.6 on
// stub routers), dense enough (6 > 8/2) that exploration grows past /29 into
// the /28, whose upper half (.8–.15) each test populates with a fringe
// structure. The destination host hangs behind the router holding .2, so a
// trace to it explores S at hop 3 with pivot .2.
type fringeScene struct {
	b       *netsim.Builder
	r1, r2  *netsim.Router
	members []*netsim.Router // routers holding .2...6
	s       *netsim.Subnet
}

func newFringeScene() *fringeScene {
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")

	a := b.Subnet("10.255.0.0/30")
	b.Attach(v, a, "10.255.0.1")
	b.Attach(r1, a, "10.255.0.2")

	up := b.Subnet("10.255.1.0/31")
	b.Attach(r1, up, "10.255.1.0")
	b.Attach(r2, up, "10.255.1.1")

	s := b.Subnet("10.7.0.0/29")
	b.Attach(r2, s, "10.7.0.1")
	var members []*netsim.Router
	for i := 2; i <= 6; i++ {
		m := b.Router("M" + itoa(i))
		b.AttachA(m, s, addr("10.7.0.0")+ipv4.Addr(i))
		members = append(members, m)
	}

	d := b.Host("dest")
	ds := b.Subnet("10.255.2.0/30")
	b.Attach(members[0], ds, "10.255.2.1")
	b.Attach(d, ds, "10.255.2.2")

	return &fringeScene{b: b, r1: r1, r2: r2, members: members, s: s}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// runScene traces to the destination and returns the subnet collected for S.
func runScene(t *testing.T, sc *fringeScene) *Subnet {
	t.Helper()
	top, err := sc.b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.255.2.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Subnets {
		if s.Prefix.Contains(addr("10.7.0.2")) {
			return s
		}
	}
	t.Fatalf("subnet S not collected:\n%v", res)
	return nil
}

func assertExactS(t *testing.T, s *Subnet, wantStop StopReason, fringe ...string) {
	t.Helper()
	if s.Prefix != pfx("10.7.0.0/29") {
		t.Errorf("prefix = %v, want 10.7.0.0/29 (stop=%v, members=%v)", s.Prefix, s.Stop, s.Addrs)
	}
	if s.Stop != wantStop {
		t.Errorf("stop = %v, want %v", s.Stop, wantStop)
	}
	for _, f := range fringe {
		if s.Contains(addr(f)) {
			t.Errorf("fringe %s leaked into subnet: %v", f, s.Addrs)
		}
	}
}

func TestH2CatchesFartherAddressSpace(t *testing.T) {
	// 10.7.0.8/31 between member router M2 (.9) and a deeper router (.8):
	// the deeper endpoint sorts first, so exploration of the /28 probes an
	// address one hop past the subnet — H2's TTL expiry fires.
	sc := newFringeScene()
	deep := sc.b.Router("Deep")
	f := sc.b.Subnet("10.7.0.8/31")
	sc.b.Attach(deep, f, "10.7.0.8")
	sc.b.Attach(sc.members[0], f, "10.7.0.9")
	s := runScene(t, sc)
	assertExactS(t, s, StopH2, "10.7.0.8", "10.7.0.9")
}

func TestH3CatchesSecondContraPivot(t *testing.T) {
	// 10.7.0.8/31 with the *ingress router's* interface first (.8 on R2):
	// alive one hop closer while a contra-pivot already exists — the
	// ingress-fringe signal of H3.
	sc := newFringeScene()
	r7 := sc.b.Router("R7")
	tt := sc.b.Subnet("10.7.0.8/31")
	sc.b.Attach(sc.r2, tt, "10.7.0.8")
	sc.b.Attach(r7, tt, "10.7.0.9")
	s := runScene(t, sc)
	assertExactS(t, s, StopH3, "10.7.0.8", "10.7.0.9")
	if s.ContraPivot != addr("10.7.0.1") {
		t.Errorf("contra-pivot = %v, want 10.7.0.1", s.ContraPivot)
	}
}

func TestH4CatchesTwoHopsCloser(t *testing.T) {
	// R2's interface on S is unresponsive, so no contra-pivot is ever found;
	// R1 (two hops closer than the pivot) owns 10.7.0.8. The candidate is
	// alive at jh-1 *and* jh-2 — H4's lower-bound contiguity fires.
	sc := newFringeScene()
	r9 := sc.b.Router("R9")
	f := sc.b.Subnet("10.7.0.8/31")
	sc.b.Attach(sc.r1, f, "10.7.0.8")
	sc.b.Attach(r9, f, "10.7.0.9")
	top, err := sc.b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top.IfaceByAddr(addr("10.7.0.1")).Responsive = false
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.255.2.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var s *Subnet
	for _, sub := range res.Subnets {
		if sub.Prefix.Contains(addr("10.7.0.2")) {
			s = sub
		}
	}
	if s == nil {
		t.Fatalf("S not collected:\n%v", res)
	}
	if s.Stop != StopH4 {
		t.Errorf("stop = %v, want H4 (members=%v)", s.Stop, s.Addrs)
	}
	if s.Contains(addr("10.7.0.8")) {
		t.Errorf("R1's fringe interface leaked: %v", s.Addrs)
	}
	if !s.ContraPivot.IsZero() {
		t.Errorf("contra-pivot = %v, want none (unresponsive)", s.ContraPivot)
	}
}

func TestH6CatchesDifferentEntryPoint(t *testing.T) {
	// A parallel subnet X = 10.7.0.8/29 at the same hop distance but reached
	// through a different branch (R1→R2b): its members answer at jh and pass
	// H3, but the entry router observed at jh-1 is neither the ingress i nor
	// the trace predecessor u — H6 fires.
	sc := newFringeScene()
	r2b := sc.b.Router("R2b")
	up2 := sc.b.Subnet("10.255.1.2/31")
	sc.b.Attach(sc.r1, up2, "10.255.1.2")
	sc.b.Attach(r2b, up2, "10.255.1.3")

	x := sc.b.Subnet("10.7.0.8/29")
	sc.b.Attach(r2b, x, "10.7.0.14") // high address: members are examined first
	for i := 9; i <= 10; i++ {
		m := sc.b.Router("X" + itoa(i))
		sc.b.AttachA(m, x, addr("10.7.0.0")+ipv4.Addr(i))
	}
	s := runScene(t, sc)
	assertExactS(t, s, StopH6, "10.7.0.9", "10.7.0.10", "10.7.0.14")
}

func TestH7CatchesFarFringe(t *testing.T) {
	// 10.7.0.8/31 between member router M2 (.8) and a router one hop deeper
	// (.9): the candidate .8 is at the right distance and enters through the
	// right router, but its /31 mate lies one hop beyond — H7's far-fringe
	// signal.
	sc := newFringeScene()
	r5 := sc.b.Router("R5")
	f := sc.b.Subnet("10.7.0.8/31")
	sc.b.Attach(sc.members[0], f, "10.7.0.8")
	sc.b.Attach(r5, f, "10.7.0.9")
	s := runScene(t, sc)
	assertExactS(t, s, StopH7, "10.7.0.8", "10.7.0.9")
}

func TestH8CatchesCloseFringe(t *testing.T) {
	// 10.7.0.8/31 between a stub router R7 (.8, one hop past the ingress)
	// and the ingress router R2 (.9): the candidate .8 passes H2–H7 but its
	// /31 mate is alive one hop closer, on the ingress router — H8's
	// close-fringe signal.
	sc := newFringeScene()
	r7 := sc.b.Router("R7")
	tt := sc.b.Subnet("10.7.0.8/31")
	sc.b.Attach(r7, tt, "10.7.0.8")
	sc.b.Attach(sc.r2, tt, "10.7.0.9")
	s := runScene(t, sc)
	assertExactS(t, s, StopH8, "10.7.0.8", "10.7.0.9")
}

func TestHalfFillStopsSparseGrowth(t *testing.T) {
	// With nothing in the upper /28 half, growth stops by the half-fill rule
	// and the subnet comes out as the covering prefix of its six members.
	sc := newFringeScene()
	s := runScene(t, sc)
	if s.Stop != StopHalfFill {
		t.Errorf("stop = %v, want half-fill", s.Stop)
	}
	if s.Prefix != pfx("10.7.0.0/29") {
		t.Errorf("prefix = %v, want 10.7.0.0/29", s.Prefix)
	}
	if len(s.Addrs) != 6 {
		t.Errorf("members = %v, want 6", s.Addrs)
	}
}

func TestH9BoundaryReduction(t *testing.T) {
	// A /28 whose utilized addresses all sit in the upper /29 half,
	// including .8 — the network address of the covering /29. H9 must split
	// until no boundary address remains.
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")
	a := b.Subnet("10.255.0.0/30")
	b.Attach(v, a, "10.255.0.1")
	b.Attach(r1, a, "10.255.0.2")
	up := b.Subnet("10.255.1.0/31")
	b.Attach(r1, up, "10.255.1.0")
	b.Attach(r2, up, "10.255.1.1")

	s := b.Subnet("10.8.0.0/28")
	b.Attach(r2, s, "10.8.0.13")
	var first *netsim.Router
	for _, off := range []int{8, 9, 10, 11, 12, 14} {
		m := b.Router("M" + itoa(off))
		b.AttachA(m, s, addr("10.8.0.0")+ipv4.Addr(off))
		if first == nil {
			first = m
		}
	}
	d := b.Host("dest")
	ds := b.Subnet("10.255.2.0/30")
	b.Attach(first, ds, "10.255.2.1")
	b.Attach(d, ds, "10.255.2.2")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	res, err := Trace(pr, addr("10.255.2.2"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sub *Subnet
	for _, x := range res.Subnets {
		if x.Prefix.Contains(addr("10.8.0.9")) {
			sub = x
		}
	}
	if sub == nil {
		t.Fatalf("subnet not collected:\n%v", res)
	}
	// Whatever the final prefix, H9 guarantees it contains no boundary
	// member.
	if sub.Prefix.Bits() < 31 {
		for _, m := range sub.Addrs {
			if sub.Prefix.IsBoundary(m) {
				t.Fatalf("boundary member %v in %v (addrs %v)", m, sub.Prefix, sub.Addrs)
			}
		}
	}
	for _, m := range sub.Addrs {
		if !sub.Prefix.Contains(m) {
			t.Fatalf("member %v outside %v", m, sub.Prefix)
		}
	}
}

func TestSingleIngressAblationShrinksEarly(t *testing.T) {
	// Under per-flow load balancing across two parallel R1→{R2,R2b}→S
	// entries, probes to different member addresses enter the subnet through
	// different routers. When the trace-collection entry u and the
	// positioning ingress i capture the two distinct branches, two-ingress
	// H6 passes every member, while the single-ingress ablation shrinks the
	// subnet at the first member entering through the other branch (§3.7).
	// Which branch a flow hashes to depends on the addresses, so we scan
	// flow IDs for a split scenario and require one to exist.
	build := func() *netsim.Topology {
		b := netsim.NewBuilder()
		v := b.Host("vantage")
		r1 := b.Router("R1")
		r2 := b.Router("R2")
		r2b := b.Router("R2b")
		a := b.Subnet("10.255.0.0/30")
		b.Attach(v, a, "10.255.0.1")
		b.Attach(r1, a, "10.255.0.2")
		up := b.Subnet("10.255.1.0/31")
		b.Attach(r1, up, "10.255.1.0")
		b.Attach(r2, up, "10.255.1.1")
		up2 := b.Subnet("10.255.1.2/31")
		b.Attach(r1, up2, "10.255.1.2")
		b.Attach(r2b, up2, "10.255.1.3")
		s := b.Subnet("10.7.0.0/28")
		b.Attach(r2, s, "10.7.0.1")
		b.Attach(r2b, s, "10.7.0.2")
		var first *netsim.Router
		for i := 3; i <= 9; i++ {
			m := b.Router("M" + itoa(i))
			b.AttachA(m, s, addr("10.7.0.0")+ipv4.Addr(i))
			if first == nil {
				first = m
			}
		}
		d := b.Host("dest")
		ds := b.Subnet("10.255.2.0/30")
		b.Attach(first, ds, "10.255.2.1")
		b.Attach(d, ds, "10.255.2.2")
		return b.MustBuild()
	}

	collect := func(cfg Config, flowID uint16) *Subnet {
		pr := prober(t, build(), netsim.Config{Mode: netsim.PerFlow}, probe.Options{Retry: &probe.RetryPolicy{}, FlowID: flowID})
		res, err := Trace(pr, addr("10.255.2.2"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Subnets {
			if s.Prefix.Contains(addr("10.7.0.3")) {
				return s
			}
		}
		return nil
	}

	found := false
	for flowID := uint16(1); flowID <= 64 && !found; flowID++ {
		full := collect(Config{}, flowID)
		if full == nil || len(full.Addrs) < 8 {
			continue // u and i landed on the same branch for this flow
		}
		single := collect(Config{SingleIngress: true}, flowID)
		singleN := 0
		if single != nil {
			singleN = len(single.Addrs)
		}
		if singleN < len(full.Addrs) {
			found = true
		}
	}
	if !found {
		t.Fatal("no flow exhibited the two-ingress advantage over 64 flow IDs")
	}
}

// examineIn positions the fringe-scene subnet and runs the heuristics on one
// candidate address, returning the verdict and the recorded stop reason.
// (The full-scene tests can shrink earlier at the /30's unassigned network
// address — probing it at the pivot distance expires at the attached router,
// an H2 signal the paper's Algorithm 1 line 14 anticipates — so the mate-30
// fallbacks are pinned at the unit level.)
func examineIn(t *testing.T, sc *fringeScene, candidate string) (examineVerdict, StopReason) {
	t.Helper()
	top, err := sc.b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := prober(t, top, netsim.Config{}, probe.Options{Retry: &probe.RetryPolicy{}})
	pos, err := findPosition(pr, addr("10.255.1.1"), addr("10.7.0.2"), 3, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.ok {
		t.Fatal("positioning failed")
	}
	e := &explorer{
		pr: pr, cfg: Config{}.withDefaults(),
		pivot: pos.pivot, pd: pos.pivotDist, ingress: pos.ingress,
		onPath: pos.onPath, traceEntry: addr("10.255.1.1"),
		members: map[ipv4.Addr]bool{pos.pivot: true},
		probed:  map[ipv4.Addr]bool{pos.pivot: true},
	}
	// Establish the contra-pivot first, as ascending exploration would.
	if _, err := e.examine(addr("10.7.0.1")); err != nil {
		t.Fatal(err)
	}
	v, err := e.examine(addr(candidate))
	if err != nil {
		t.Fatal(err)
	}
	return v, e.stop
}

func TestH7Mate30Fallback(t *testing.T) {
	// The far-fringe link uses the two usable hosts of a /30, so the
	// candidate's /31 mate is the unassigned network address; H7 must fall
	// back to the /30 mate to catch the interface one hop beyond.
	sc := newFringeScene()
	r5 := sc.b.Router("R5")
	f := sc.b.Subnet("10.7.0.8/30") // usable hosts .9 (M2, near) and .10 (R5, deep)
	sc.b.Attach(sc.members[0], f, "10.7.0.9")
	sc.b.Attach(r5, f, "10.7.0.10")
	v, stop := examineIn(t, sc, "10.7.0.9")
	if v != verdictShrink || stop != StopH7 {
		t.Fatalf("examine = %v stop=%v, want shrink via H7's /30-mate fallback", v, stop)
	}
}

func TestH8Mate30FallbackUnreachable(t *testing.T) {
	// A close fringe over a /30 whose /31 mate is unassigned: one might
	// expect H8's /30-mate fallback to fire, but in a coherent CIDR plan the
	// unassigned /31 mate is still covered by the fringe subnet, so probing
	// it at jh-1 expires at the ingress router — H8's "mate farther back"
	// branch passes and the fallback never runs (the paper's snippet only
	// falls back on silence or host-unreachable). The candidate slips
	// through H8...
	sc := newFringeScene()
	r7 := sc.b.Router("R7")
	tt := sc.b.Subnet("10.7.0.8/30")
	sc.b.Attach(r7, tt, "10.7.0.9")
	sc.b.Attach(sc.r2, tt, "10.7.0.10")
	v, stop := examineIn(t, sc, "10.7.0.9")
	if v != verdictMember || stop != StopNone {
		t.Fatalf("examine = %v stop=%v; expected the documented H8 evasion", v, stop)
	}
	// ...but full exploration still excludes the fringe: the ingress
	// router's own /30 interface (.10, one hop closer) trips H3's
	// second-contra-pivot rule and the subnet shrinks back to its true /29.
	sc2 := newFringeScene()
	r7b := sc2.b.Router("R7")
	tt2 := sc2.b.Subnet("10.7.0.8/30")
	sc2.b.Attach(r7b, tt2, "10.7.0.9")
	sc2.b.Attach(sc2.r2, tt2, "10.7.0.10")
	s := runScene(t, sc2)
	assertExactS(t, s, StopH3, "10.7.0.9", "10.7.0.10")
}
