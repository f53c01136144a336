package experiments

import (
	"math"
	"sync"
	"testing"

	"tracenet/internal/ipv4"
)

// The multi-vantage run is the most expensive fixture; share it across the
// Figure 6–9 tests.
var (
	ispOnce sync.Once
	ispRes  *ISPResult
	ispErr  error
)

func ispFixture(t *testing.T) *ISPResult {
	t.Helper()
	ispOnce.Do(func() {
		ispRes, ispErr = RunISP(7)
	})
	if ispErr != nil {
		t.Fatal(ispErr)
	}
	return ispRes
}

// TestFigure6Venn validates the cross-vantage agreement of Figure 6: around
// 60% of the subnets observed by a vantage point are observed by all three,
// and roughly 80% by at least one other.
func TestFigure6Venn(t *testing.T) {
	res := ispFixture(t)
	v := res.Figure6()
	if v.ABC == 0 {
		t.Fatalf("no three-way agreement at all: %+v", v)
	}
	fa, fb, fc := v.AgreementAll()
	for _, f := range []float64{fa, fb, fc} {
		if f < 0.48 || f > 0.75 {
			t.Errorf("all-three agreement = %.2f, want ≈0.60 (venn %+v)", f, v)
		}
	}
	ga, gb, gc := v.AgreementAny()
	for _, g := range []float64{ga, gb, gc} {
		if g < 0.72 || g > 0.93 {
			t.Errorf("any-other agreement = %.2f, want ≈0.80 (venn %+v)", g, v)
		}
	}
	// The unique regions exist and are substantial — the paper attributes
	// them to different border routers on the paths.
	for _, u := range []int{v.OnlyA, v.OnlyB, v.OnlyC} {
		if u < 20 {
			t.Errorf("unique region too small: %+v", v)
		}
	}
}

func TestVenn(t *testing.T) {
	mk := func(ps ...string) map[ipv4.Prefix]bool {
		m := map[ipv4.Prefix]bool{}
		for _, p := range ps {
			m[ipv4.MustParsePrefix(p)] = true
		}
		return m
	}
	a := mk("10.0.0.0/30", "10.0.0.4/30", "10.0.1.0/30", "10.0.3.0/30")
	b := mk("10.0.0.0/30", "10.0.0.4/30", "10.0.2.0/30")
	c := mk("10.0.0.0/30", "10.0.1.0/30", "10.0.2.0/30")
	v := VennOf(a, b, c)
	if v.ABC != 1 || v.AB != 1 || v.AC != 1 || v.BC != 1 || v.OnlyA != 1 || v.OnlyB != 0 || v.OnlyC != 0 {
		t.Fatalf("venn = %+v", v)
	}
	if v.TotalA() != 4 || v.TotalB() != 3 || v.TotalC() != 3 {
		t.Fatalf("totals = %d %d %d", v.TotalA(), v.TotalB(), v.TotalC())
	}
	fa, fb, fc := v.AgreementAll()
	if math.Abs(fa-0.25) > 1e-9 || math.Abs(fb-1.0/3) > 1e-9 || math.Abs(fc-1.0/3) > 1e-9 {
		t.Fatalf("agreement all = %v %v %v", fa, fb, fc)
	}
	fa, fb, fc = v.AgreementAny()
	if math.Abs(fa-0.75) > 1e-9 || math.Abs(fb-1) > 1e-9 || math.Abs(fc-1) > 1e-9 {
		t.Fatalf("agreement any = %v %v %v", fa, fb, fc)
	}
}

// TestFigure7IPDistribution validates the target/subnetized/un-subnetized
// shape: SprintLink is the least responsive ISP (largest un-subnetized
// count), NTT America the most responsive (largest subnetized count, thanks
// to its few but very large subnets).
func TestFigure7IPDistribution(t *testing.T) {
	res := ispFixture(t)
	for run := range res.Runs {
		rows := res.Figure7(run)
		byISP := map[string]IPDistribution{}
		for _, d := range rows {
			byISP[d.ISP] = d
		}
		sprint := byISP["SprintLink"]
		ntt := byISP["NTTAmerica"]
		for _, d := range rows {
			if d.ISP != "SprintLink" && d.Unsubnetized >= sprint.Unsubnetized {
				t.Errorf("run %d: %s un-subnetized %d >= SprintLink %d",
					run, d.ISP, d.Unsubnetized, sprint.Unsubnetized)
			}
			if d.ISP != "NTTAmerica" && d.Subnetized >= ntt.Subnetized {
				t.Errorf("run %d: %s subnetized %d >= NTTAmerica %d",
					run, d.ISP, d.Subnetized, ntt.Subnetized)
			}
		}
		// "not all target IP addresses responded": some targets yield
		// nothing, so subnetized+unsubnetized need not cover the targets.
		if sprint.Unsubnetized < 30 {
			t.Errorf("run %d: SprintLink un-subnetized %d, want a large class", run, sprint.Unsubnetized)
		}
	}
}

// TestFigure8SubnetPerISP validates the per-ISP subnet counts: despite
// hosting the most addresses, NTT America has the fewest subnets (few but
// large), and SprintLink the most — the paper's counter-intuitive pairing of
// Figures 7 and 8.
func TestFigure8SubnetPerISP(t *testing.T) {
	res := ispFixture(t)
	for run := range res.Runs {
		counts := res.Figure8(run)
		if !(counts["SprintLink"] > counts["Level3"] &&
			counts["Level3"] > counts["AboveNet"] &&
			counts["AboveNet"] > counts["NTTAmerica"]) {
			t.Errorf("run %d: subnet counts out of order: %v (want Sprint > Level3 > AboveNet > NTT)",
				run, counts)
		}
	}
}

// TestFigure9PrefixDistribution validates the prefix-length frequency shape:
// point-to-point /31 and /30 dominate, /29 follows with a big drop, then an
// even bigger drop to /28, with a small tail of large subnets (NTT's
// /22–/24).
func TestFigure9PrefixDistribution(t *testing.T) {
	res := ispFixture(t)
	for run := range res.Runs {
		h := res.Figure9(run)
		if h[30] < 2*h[29] {
			t.Errorf("run %d: /30 (%d) should dominate /29 (%d)", run, h[30], h[29])
		}
		if h[29] < 4*h[28] {
			t.Errorf("run %d: /29 (%d) → /28 (%d) should drop sharply", run, h[29], h[28])
		}
		if h[31] < h[29] {
			t.Errorf("run %d: /31 (%d) should exceed /29 (%d)", run, h[31], h[29])
		}
		if h[22]+h[23]+h[24] == 0 {
			t.Errorf("run %d: the large-subnet tail (/22–/24) is missing: %v", run, h)
		}
	}
}

// TestTable3Protocols validates the probing-protocol comparison: ICMP
// collects by far the most subnets, UDP a protocol-filtered fraction, and
// TCP is negligible.
func TestTable3Protocols(t *testing.T) {
	rows, err := Table3(7)
	if err != nil {
		t.Fatal(err)
	}
	totICMP, totUDP, totTCP := 0, 0, 0
	for _, r := range rows {
		if r.ICMP <= r.UDP {
			t.Errorf("%s: ICMP (%d) must dominate UDP (%d)", r.ISP, r.ICMP, r.UDP)
		}
		if r.UDP < r.TCP {
			t.Errorf("%s: UDP (%d) must dominate TCP (%d)", r.ISP, r.UDP, r.TCP)
		}
		totICMP += r.ICMP
		totUDP += r.UDP
		totTCP += r.TCP
	}
	if totICMP < 2*totUDP {
		t.Errorf("ICMP total (%d) should be at least double UDP (%d); paper: 11995 vs 3779", totICMP, totUDP)
	}
	if totTCP > totUDP/5 {
		t.Errorf("TCP total (%d) should be negligible; paper: 68 of 11995", totTCP)
	}
	// The per-ISP UDP/ICMP ratio ordering: NTT America is by far the most
	// UDP-hostile (106/1593 in the paper).
	byISP := map[string]Table3Row{}
	for _, r := range rows {
		byISP[r.ISP] = r
	}
	nttRatio := float64(byISP["NTTAmerica"].UDP) / float64(byISP["NTTAmerica"].ICMP)
	sprintRatio := float64(byISP["SprintLink"].UDP) / float64(byISP["SprintLink"].ICMP)
	if nttRatio >= sprintRatio {
		t.Errorf("NTT UDP ratio (%.2f) should be far below SprintLink's (%.2f)", nttRatio, sprintRatio)
	}
}

// TestMapUnion validates §3.7's re-collection suggestion: the merged map
// over three campaigns strictly dominates every single campaign.
func TestMapUnion(t *testing.T) {
	res := ispFixture(t)
	u := MapUnion(res)
	for i, n := range u.PerVantage {
		if u.Union <= n {
			t.Errorf("union %d subnets does not exceed vantage %d's %d", u.Union, i, n)
		}
		if u.UnionAddrs <= u.PerVantageAddrs[i] {
			t.Errorf("union %d addrs does not exceed vantage %d's %d", u.UnionAddrs, i, u.PerVantageAddrs[i])
		}
	}
}
