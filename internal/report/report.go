// Package report renders the experiment results as text tables matching the
// rows and series of the paper's Tables 1–3 and Figures 6–9. The
// cmd/experiments binary and the benchmark harness print these.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tracenet/internal/core"
	"tracenet/internal/experiments"
	"tracenet/internal/groundtruth"
)

// ResearchTable writes a Table 1/2-style distribution for a research-network
// run, followed by the §4.1 headline rates.
func ResearchTable(w io.Writer, res *experiments.ResearchResult) {
	fmt.Fprintf(w, "%s, Original and Collected Subnet Distribution\n", res.Name)

	var bits []int
	for b := range res.Dist.Original {
		bits = append(bits, b)
	}
	sort.Ints(bits)

	fmt.Fprintf(w, "%-12s", "")
	for _, b := range bits {
		fmt.Fprintf(w, "%6s", fmt.Sprintf("/%d", b))
	}
	fmt.Fprintf(w, "%8s\n", "total")

	row := func(name string, cells map[int]int) {
		fmt.Fprintf(w, "%-12s", name)
		total := 0
		for _, b := range bits {
			fmt.Fprintf(w, "%6d", cells[b])
			total += cells[b]
		}
		fmt.Fprintf(w, "%8d\n", total)
	}
	row("orgl", res.Dist.Original)
	for _, cls := range groundtruth.Classes {
		row(cls.String(), res.Dist.PerClass[cls])
	}

	fmt.Fprintf(w, "\nexact match rate:              %5.1f%%  (excl. unresponsive: %5.1f%%)\n",
		100*res.ExactRate, 100*res.ExactRateResponsive)
	fmt.Fprintf(w, "prefix similarity (eq. 3):     %6.3f  (excl. totally unresponsive: %6.3f)\n",
		res.PrefixSimilarity, res.PrefixSimilarityResponsive)
	fmt.Fprintf(w, "size similarity (eq. 5):       %6.3f  (excl. totally unresponsive: %6.3f)\n",
		res.SizeSimilarity, res.SizeSimilarityResponsive)
	fmt.Fprintf(w, "probes spent:                  %d\n", res.Probes)
}

// Venn writes the Figure 6 region counts and agreement fractions.
func Venn(w io.Writer, res *experiments.ISPResult) {
	v := res.Figure6()
	names := make([]string, len(res.Runs))
	for i := range res.Runs {
		names[i] = res.Runs[i].Vantage
	}
	fmt.Fprintf(w, "Figure 6: distribution of exact-match subnets among %s\n", strings.Join(names, ", "))
	fmt.Fprintf(w, "  only %-8s %5d    %s&%s %5d\n", names[0], v.OnlyA, names[0], names[1], v.AB)
	fmt.Fprintf(w, "  only %-8s %5d    %s&%s %5d\n", names[1], v.OnlyB, names[0], names[2], v.AC)
	fmt.Fprintf(w, "  only %-8s %5d    %s&%s %5d\n", names[2], v.OnlyC, names[1], names[2], v.BC)
	fmt.Fprintf(w, "  all three      %5d\n", v.ABC)
	fa, fb, fc := v.AgreementAll()
	ga, gb, gc := v.AgreementAny()
	fmt.Fprintf(w, "  observed by all three:        %.0f%% / %.0f%% / %.0f%%  (paper: ~60%%)\n", 100*fa, 100*fb, 100*fc)
	fmt.Fprintf(w, "  observed by at least one other: %.0f%% / %.0f%% / %.0f%%  (paper: ~80%%)\n", 100*ga, 100*gb, 100*gc)
}

// IPDistribution writes the Figure 7 panels (one per vantage point).
func IPDistribution(w io.Writer, res *experiments.ISPResult) {
	for run := range res.Runs {
		fmt.Fprintf(w, "Figure 7: IP / ISP at vantage %s\n", res.Runs[run].Vantage)
		fmt.Fprintf(w, "  %-12s %8s %11s %13s\n", "ISP", "targets", "subnetized", "un-subnetized")
		for _, d := range res.Figure7(run) {
			fmt.Fprintf(w, "  %-12s %8d %11d %13d\n", d.ISP, d.Targets, d.Subnetized, d.Unsubnetized)
		}
	}
}

// SubnetPerISP writes the Figure 8 series.
func SubnetPerISP(w io.Writer, res *experiments.ISPResult) {
	fmt.Fprintln(w, "Figure 8: subnet / ISP distribution per vantage point")
	fmt.Fprintf(w, "  %-12s", "ISP")
	for i := range res.Runs {
		fmt.Fprintf(w, "%9s", res.Runs[i].Vantage)
	}
	fmt.Fprintln(w)
	for _, p := range res.Profiles {
		fmt.Fprintf(w, "  %-12s", p.Name)
		for run := range res.Runs {
			fmt.Fprintf(w, "%9d", res.Figure8(run)[p.Name])
		}
		fmt.Fprintln(w)
	}
}

// PrefixDistribution writes the Figure 9 series (plotted on a log scale in
// the paper).
func PrefixDistribution(w io.Writer, res *experiments.ISPResult) {
	fmt.Fprintln(w, "Figure 9: subnet prefix length distribution per vantage point")
	all := map[int]bool{}
	hists := make([]map[int]int, len(res.Runs))
	for run := range res.Runs {
		hists[run] = res.Figure9(run)
		for b := range hists[run] {
			all[b] = true
		}
	}
	var bits []int
	for b := range all {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	fmt.Fprintf(w, "  %-8s", "prefix")
	for i := range res.Runs {
		fmt.Fprintf(w, "%9s", res.Runs[i].Vantage)
	}
	fmt.Fprintln(w)
	for _, b := range bits {
		fmt.Fprintf(w, "  /%-7d", b)
		for run := range res.Runs {
			fmt.Fprintf(w, "%9d", hists[run][b])
		}
		fmt.Fprintln(w)
	}
}

// ProtocolTable writes Table 3.
func ProtocolTable(w io.Writer, rows []experiments.Table3Row) {
	fmt.Fprintln(w, "Table 3: tracenet under ICMP, UDP, TCP probing")
	fmt.Fprintf(w, "  %-12s %6s %6s %6s\n", "ISP", "ICMP", "UDP", "TCP")
	totI, totU, totT := 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %6d %6d %6d\n", r.ISP, r.ICMP, r.UDP, r.TCP)
		totI += r.ICMP
		totU += r.UDP
		totT += r.TCP
	}
	fmt.Fprintf(w, "  %-12s %6d %6d %6d\n", "Total", totI, totU, totT)
}

// OverheadTable writes the §3.6 probing-overhead sweep.
func OverheadTable(w io.Writer, points []experiments.OverheadPoint) {
	fmt.Fprintln(w, "Probing overhead model (§3.6): measured vs paper envelope 7|S|+7")
	fmt.Fprintf(w, "  %8s %8s %12s %6s\n", "|S|", "probes", "7|S|+7", "p2p")
	for _, p := range points {
		mark := ""
		if p.PointToPoint {
			mark = "yes"
		}
		fmt.Fprintf(w, "  %8d %8d %12d %6s\n", p.Members, p.Probes, p.PaperUpperBound, mark)
	}
}

// Ablations writes the design-choice comparisons.
func Ablations(w io.Writer, results []experiments.AblationResult) {
	fmt.Fprintln(w, "Ablations")
	for _, a := range results {
		fmt.Fprintf(w, "  %-48s baseline %10.1f   ablated %10.1f   (%s)\n",
			a.Name, a.Baseline, a.Ablated, a.Metric)
	}
}

// Coverage writes the collector comparison: traceroute, the DisCarte-style
// record-route baseline, and tracenet.
func Coverage(w io.Writer, c *experiments.CoverageResult) {
	fmt.Fprintln(w, "Coverage: traceroute vs record-route (DisCarte) vs tracenet, Internet2-like network")
	fmt.Fprintf(w, "  %-22s %10s %10s %10s\n", "", "traceroute", "rec-route", "tracenet")
	fmt.Fprintf(w, "  %-22s %10d %10d %10d\n", "addresses discovered", c.TracerouteAddrs, c.DiscarteAddrs, c.TracenetAddrs)
	fmt.Fprintf(w, "  %-22s %10d %10d %10d\n", "probe packets", c.TracerouteProbes, c.DiscarteProbes, c.TracenetProbes)
	fmt.Fprintf(w, "  %-22s %10s %10s %10d\n", "subnets annotated", "-", "-", c.Subnets)
	fmt.Fprintf(w, "  %-22s %10s %10s %10d\n", "multi-access marked", "-", "-", c.MultiAccess)
}

// HeuristicStats writes the stop-reason distribution of a collection run.
func HeuristicStats(w io.Writer, stats map[core.StopReason]int) {
	fmt.Fprintln(w, "Stop-reason distribution (which rule ended each subnet's growth)")
	// OrderedStopCounts renders canonical reasons in paper order and then any
	// unknown reasons sorted by name, so no entry is silently dropped and the
	// output is deterministic regardless of map iteration order.
	for _, sc := range core.OrderedStopCounts(stats) {
		fmt.Fprintf(w, "  %-12s %5d\n", string(sc.Reason), sc.Count)
	}
}

// EntryLimitation writes the fixed-ingress characterization.
func EntryLimitation(w io.Writer, frac map[int]float64) {
	fmt.Fprintln(w, "Fixed-ingress assumption (§3.2(ii)): LAN recovery vs ingress-router count")
	for entries := 1; entries <= 3; entries++ {
		fmt.Fprintf(w, "  %d ingress router(s): %5.1f%% of members recovered\n", entries, 100*frac[entries])
	}
}

// OnlineVsOffline writes the comparison with the offline subnet-inference
// baseline [7].
func OnlineVsOffline(w io.Writer, r *experiments.OnlineVsOfflineResult) {
	fmt.Fprintln(w, "Online (tracenet) vs offline subnet inference from traceroute data [7]")
	fmt.Fprintf(w, "  %-26s %10s %10s\n", "", "offline[7]", "tracenet")
	fmt.Fprintf(w, "  %-26s %10d %10d\n", "input/collected addresses", r.OfflineAddrs, r.OnlineAddrs)
	fmt.Fprintf(w, "  %-26s %9.1f%% %9.1f%%\n", "exact match rate", 100*r.OfflineExact, 100*r.OnlineExact)
	fmt.Fprintf(w, "  %-26s %10d %10d\n", "exact subnets", r.OfflineDist.Count(groundtruth.ClassExact), r.OnlineDist.Count(groundtruth.ClassExact))
	fmt.Fprintf(w, "  %-26s %10d %10d\n", "missed subnets",
		r.OfflineDist.Count(groundtruth.ClassMiss)+r.OfflineDist.Count(groundtruth.ClassMissUnresponsive),
		r.OnlineDist.Count(groundtruth.ClassMiss)+r.OnlineDist.Count(groundtruth.ClassMissUnresponsive))
}

// RouterMap writes the tracenet + alias-resolution pipeline evaluation.
func RouterMap(w io.Writer, r *experiments.RouterMapResult) {
	fmt.Fprintln(w, "Router-level map: tracenet + Ally alias resolution (subnet-constrained)")
	fmt.Fprintf(w, "  addresses resolved:        %d\n", r.Addresses)
	fmt.Fprintf(w, "  routers inferred:          %d (ground truth %d)\n", r.Groups, r.TrueRouters)
	fmt.Fprintf(w, "  pairwise precision/recall: %.2f / %.2f\n", r.Precision, r.Recall)
	fmt.Fprintf(w, "  alias probes:              %d with subnet constraint, %d without\n",
		r.ProbesWithConstraint, r.ProbesWithout)
}

// AccuracyTable writes the ground-truth accuracy ensemble: one row per
// regime with ensemble-mean precision/recall and verdict totals, plus the
// committed floors the CI gate enforces.
func AccuracyTable(w io.Writer, results []*experiments.AccuracyResult) {
	fmt.Fprintf(w, "Ground-Truth Accuracy Ensemble (%d seeds per regime)\n", len(experiments.AccuracySeeds))
	fmt.Fprintf(w, "%-9s %7s %7s %7s %7s  %5s %6s %8s %7s %6s\n",
		"regime", "sub-P", "sub-R", "addr-P", "addr-R", "exact", "subset", "superset", "phantom", "missed")
	for _, r := range results {
		fmt.Fprintf(w, "%-9s %7.3f %7.3f %7.3f %7.3f  %5d %6d %8d %7d %6d\n",
			r.Regime, r.SubnetPrecision, r.SubnetRecall, r.AddrPrecision, r.AddrRecall,
			r.Exact, r.Subset, r.Superset, r.Phantom, r.Missed)
	}
	fmt.Fprintln(w, "committed floors:")
	for _, regime := range experiments.Regimes {
		f := experiments.AccuracyFloors[regime]
		fmt.Fprintf(w, "%-9s %7.3f %7.3f %7.3f %7.3f\n",
			regime, f.SubnetPrecision, f.SubnetRecall, f.AddrPrecision, f.AddrRecall)
	}
}

// AdversarialTable writes the adversarial robustness ensemble: per regime,
// the undefended collector's accuracy under attack next to the defended
// run's, the defense cost (extra probes, quarantined responders), and the
// blame attribution of the undefended error rows.
func AdversarialTable(w io.Writer, results []*experiments.AdversarialResult) {
	fmt.Fprintf(w, "Adversarial Robustness Ensemble (%d seeds per regime, undefended vs -defend)\n",
		len(experiments.AdversarialSeeds))
	fmt.Fprintf(w, "%-14s %7s %7s | %7s %7s  %6s %6s  %s\n",
		"regime", "sub-P", "sub-R", "sub-P", "sub-R", "quar", "probes", "blamed error rows")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %7.3f %7.3f | %7.3f %7.3f  %6d %6d  ",
			r.Regime, r.UndefendedSubnetPrecision, r.UndefendedSubnetRecall,
			r.DefendedSubnetPrecision, r.DefendedSubnetRecall,
			r.Quarantined, r.DefenseProbes)
		if len(r.Blames) == 0 {
			fmt.Fprint(w, "-")
		}
		for i, b := range r.Blames {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s x%d", b.Blame, b.Count)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "committed floors (undefended max-P / defended min-P / defended min-R):")
	for _, regime := range experiments.AdversarialRegimes {
		f := experiments.AdversarialFloors[regime]
		fmt.Fprintf(w, "%-14s %7.2f %16.2f %16.2f\n",
			regime, f.UndefendedSubnetPrecisionMax, f.DefendedSubnetPrecision, f.DefendedSubnetRecall)
	}
}
