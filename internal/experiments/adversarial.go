package experiments

import (
	"fmt"

	"tracenet/internal/core"
	"tracenet/internal/groundtruth"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// Adversarial regimes: byzantine responders that lie rather than fail
// (DESIGN.md §11). Each regime runs the same seeded topology twice — once
// with the paper's trusting inference and once with defenses on — so the
// harness measures both the damage an adversary does and how much of it the
// defenses claw back.
const (
	// RegimeLiar: routers answer TTL-expired probes with rotating spoofed
	// sources drawn from real interfaces elsewhere in the topology.
	RegimeLiar Regime = "liar"
	// RegimeAliasConfuse: several routers share one anycast-style source
	// address, collapsing distinct links into one apparent interface.
	RegimeAliasConfuse Regime = "alias-confuse"
	// RegimeHiddenHop: a backbone router forwards transparently without ever
	// generating ICMP errors, like an MPLS LSR with TTL propagation off.
	RegimeHiddenHop Regime = "hidden-hop"
	// RegimeEcho: routers mirror the probed destination back as an alive
	// reply source, minting hosts at addresses nobody owns.
	RegimeEcho Regime = "echo"
	// RegimeByzantine: all four lies at once.
	RegimeByzantine Regime = "byzantine"
)

// AdversarialRegimes is the canonical order for reports and gates.
var AdversarialRegimes = []Regime{RegimeLiar, RegimeAliasConfuse, RegimeHiddenHop, RegimeEcho, RegimeByzantine}

// AdversarialSeeds is the committed ensemble for the adversarial gate. It
// matches AccuracySeeds: the per-seed spread of the probabilistic regimes
// (echo especially) is wide enough that a three-seed mean flips sign on an
// unlucky draw stream, while the five-seed mean is stable.
var AdversarialSeeds = []int64{1, 2, 3, 4, 5}

// AdversarialPlan builds the deterministic always-on fault plan for a
// regime. The probabilities are pinned: high enough that the undefended
// collapse is unmistakable, low enough that a lie repeated under
// cross-validation (which a fabrication must survive twice) is unlikely.
func AdversarialPlan(regime Regime, seed int64) (netsim.FaultPlan, error) {
	plan := netsim.FaultPlan{Seed: seed}
	add := func(kinds ...netsim.Fault) { plan.Faults = append(plan.Faults, kinds...) }
	liar := netsim.Fault{Kind: netsim.FaultLiar, Prob: 0.35}
	alias := netsim.Fault{Kind: netsim.FaultAliasConfuse}
	// bb1 exists in every random topology (default 8 backbone routers) and
	// sits on many paths, so hiding it perturbs real traces.
	hidden := netsim.Fault{Kind: netsim.FaultHiddenHop, Router: "bb1"}
	echo := netsim.Fault{Kind: netsim.FaultEcho, Prob: 0.5}
	switch regime {
	case RegimeLiar:
		add(liar)
	case RegimeAliasConfuse:
		add(alias)
	case RegimeHiddenHop:
		add(hidden)
	case RegimeEcho:
		add(echo)
	case RegimeByzantine:
		add(liar, alias, hidden, echo)
	default:
		return netsim.FaultPlan{}, fmt.Errorf("unknown adversarial regime %q", regime)
	}
	return plan, nil
}

// AdversarialRun is one seeded topology collected twice under one regime.
type AdversarialRun struct {
	Seed int64
	// Undefended is the paper's trusting inference under attack; Defended is
	// the same run with core.Config.Defend on. Both scores are attributed
	// (groundtruth.Attribute) against the regime's plan.
	Undefended *groundtruth.Score
	Defended   *groundtruth.Score
	// Quarantined counts the addresses the defended session quarantined.
	Quarantined int
	// DefenseProbes is the extra probe cost the defenses paid.
	DefenseProbes uint64
}

// AdversarialResult aggregates an ensemble of seeded runs under one regime.
type AdversarialResult struct {
	Regime Regime
	Runs   []AdversarialRun

	// Ensemble means, each in [0,1].
	UndefendedSubnetPrecision float64
	UndefendedSubnetRecall    float64
	DefendedSubnetPrecision   float64
	DefendedSubnetRecall      float64
	UndefendedAddrPrecision   float64
	DefendedAddrPrecision     float64

	// Quarantined / DefenseProbes are ensemble totals.
	Quarantined   int
	DefenseProbes uint64
	// Blames tallies the attributed undefended error rows by fault kind.
	Blames []groundtruth.BlameCount
}

// AdversarialFloor is a committed regression gate for one regime: the
// undefended run must stay visibly broken (precision at or below the
// ceiling — an adversary that stops hurting means the simulation regressed)
// and the defended run must stay good (precision/recall at or above the
// floors).
type AdversarialFloor struct {
	// UndefendedSubnetPrecisionMax is the collapse ceiling: mean undefended
	// subnet precision must not exceed it. 1 disables the ceiling for
	// regimes whose lie degrades recall rather than precision.
	UndefendedSubnetPrecisionMax float64
	// DefendedSubnetPrecision / DefendedSubnetRecall are recovery floors.
	DefendedSubnetPrecision float64
	DefendedSubnetRecall    float64
	// MinPrecisionRecovery requires defended precision to beat undefended
	// precision by at least this margin — the "measurably recovers" gate.
	MinPrecisionRecovery float64
}

// AdversarialFloors are the committed per-regime gates, enforced by the
// tier-1 tests and scripts/check.sh over AdversarialSeeds. Like
// AccuracyFloors they are pinned just past the measured ensemble values —
// deterministic runs have no noise to absorb, the slack only covers
// intentional topology-generator changes.
//
// Measured means at commit time (seeds 1–5, per-router-sharded fault
// streams):
//
//	liar:          undefended subnet P 0.830 → defended 0.928 (R 0.894 → 0.600)
//	alias-confuse: undefended subnet P 1.000 → defended 1.000 (R 0.156 → 0.650)
//	hidden-hop:    undefended subnet P 1.000 → defended 1.000 (R 0.956 → 0.956)
//	echo:          undefended subnet P 0.794 → defended 0.807 (R 0.606 → 0.650)
//	byzantine:     undefended subnet P 0.733 → defended 0.826 (R 0.369 → 0.519)
//
// The shape per regime is the threat model of DESIGN.md §11 made
// measurable. Liar and echo poison precision — the undefended collector
// *invents* subnet structure, the one failure the clean/faulted gates prove
// it never does on honest networks — and the defenses demonstrably claw it
// back. Alias-confuse barely touches precision but collapses recall to
// 0.156 undefended (the repeated shared source trips the loop detector and
// aborts traces early); quarantining the shared address recovers recall to
// 0.650. Hidden hops are invisible by construction, so no defense recovers
// them — the gate just pins that they cost recall, not precision. Echo's
// recovery is real but small in the mean (its per-seed spread is the reason
// the ensemble is five seeds), so its margin gate is the loosest.
var AdversarialFloors = map[Regime]AdversarialFloor{
	RegimeLiar:         {UndefendedSubnetPrecisionMax: 0.87, DefendedSubnetPrecision: 0.91, DefendedSubnetRecall: 0.55, MinPrecisionRecovery: 0.05},
	RegimeAliasConfuse: {UndefendedSubnetPrecisionMax: 1, DefendedSubnetPrecision: 0.99, DefendedSubnetRecall: 0.60},
	RegimeHiddenHop:    {UndefendedSubnetPrecisionMax: 1, DefendedSubnetPrecision: 0.99, DefendedSubnetRecall: 0.94},
	RegimeEcho:         {UndefendedSubnetPrecisionMax: 0.84, DefendedSubnetPrecision: 0.79, DefendedSubnetRecall: 0.62, MinPrecisionRecovery: 0.005},
	RegimeByzantine:    {UndefendedSubnetPrecisionMax: 0.80, DefendedSubnetPrecision: 0.80, DefendedSubnetRecall: 0.48, MinPrecisionRecovery: 0.05},
}

// Violations compares the result against a floor and describes every bound
// broken; empty means the gate passes.
func (r *AdversarialResult) Violations(f AdversarialFloor) []string {
	var out []string
	if r.UndefendedSubnetPrecision > f.UndefendedSubnetPrecisionMax {
		out = append(out, fmt.Sprintf("%s/undefended-subnet-precision %.3f above ceiling %.3f (attack no longer hurts)",
			r.Regime, r.UndefendedSubnetPrecision, f.UndefendedSubnetPrecisionMax))
	}
	if r.DefendedSubnetPrecision < f.DefendedSubnetPrecision {
		out = append(out, fmt.Sprintf("%s/defended-subnet-precision %.3f below floor %.3f",
			r.Regime, r.DefendedSubnetPrecision, f.DefendedSubnetPrecision))
	}
	if r.DefendedSubnetRecall < f.DefendedSubnetRecall {
		out = append(out, fmt.Sprintf("%s/defended-subnet-recall %.3f below floor %.3f",
			r.Regime, r.DefendedSubnetRecall, f.DefendedSubnetRecall))
	}
	if rec := r.DefendedSubnetPrecision - r.UndefendedSubnetPrecision; rec < f.MinPrecisionRecovery {
		out = append(out, fmt.Sprintf("%s/precision-recovery %.3f below minimum %.3f",
			r.Regime, rec, f.MinPrecisionRecovery))
	}
	return out
}

// collectAdversarial runs one seeded topology under a regime's plan and
// scores it. The defended and undefended runs share every other parameter,
// so their difference isolates the defenses.
//
// It is the one harness that still traces its target list on one
// multi-target core.Session rather than through collect.Run, because the
// session quarantines a lying address for every later target while a
// campaign quarantines per target. On the campaign path the committed liar
// and byzantine gates fail (seeds 1–5: liar defended subnet precision 0.889
// against the 0.91 floor, byzantine 0.791 against 0.80), so the gap is in
// the shipped -defend, and ROADMAP's "Campaign defence quarantines per
// target" item tracks it; no gate moves to hide it.
func collectAdversarial(regime Regime, seed int64, defend bool) (*groundtruth.Score, *core.Session, uint64, error) {
	plan, err := AdversarialPlan(regime, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	topol, targets := topo.Random(topo.RandomSpec{Seed: seed, ExtraLinks: -1})
	n := netsim.New(topol, netsim.Config{Seed: seed})
	if err := n.InstallFaults(plan); err != nil {
		return nil, nil, 0, err
	}
	port, err := n.PortFor("vantage")
	if err != nil {
		return nil, nil, 0, err
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := core.NewSession(pr, core.Config{Defend: defend})
	var defenseProbes uint64
	for _, dst := range targets {
		res, err := sess.Trace(dst)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("regime %s seed %d defend=%v trace %v: %w", regime, seed, defend, dst, err)
		}
		defenseProbes += res.DefenseProbes
	}
	truth := groundtruth.FromTopology(topol, groundtruth.Options{})
	score := truth.Score(groundtruth.FromCoreSubnets(sess.Subnets()))
	groundtruth.Attribute(score, plan)
	return score, sess, defenseProbes, nil
}

// RunAdversarial collects one seeded topology twice — trusting, then
// defended — under one regime.
func RunAdversarial(regime Regime, seed int64) (*AdversarialRun, error) {
	undef, _, _, err := collectAdversarial(regime, seed, false)
	if err != nil {
		return nil, err
	}
	def, sess, probes, err := collectAdversarial(regime, seed, true)
	if err != nil {
		return nil, err
	}
	return &AdversarialRun{
		Seed:          seed,
		Undefended:    undef,
		Defended:      def,
		Quarantined:   len(sess.Quarantined()),
		DefenseProbes: probes,
	}, nil
}

// AdversarialEnsemble runs every seed under one regime and aggregates.
func AdversarialEnsemble(regime Regime, seeds []int64) (*AdversarialResult, error) {
	if len(seeds) == 0 {
		seeds = AdversarialSeeds
	}
	res := &AdversarialResult{Regime: regime}
	blames := map[string]int{}
	for _, seed := range seeds {
		run, err := RunAdversarial(regime, seed)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
		res.UndefendedSubnetPrecision += run.Undefended.SubnetPrecision
		res.UndefendedSubnetRecall += run.Undefended.SubnetRecall
		res.DefendedSubnetPrecision += run.Defended.SubnetPrecision
		res.DefendedSubnetRecall += run.Defended.SubnetRecall
		res.UndefendedAddrPrecision += run.Undefended.AddrPrecision
		res.DefendedAddrPrecision += run.Defended.AddrPrecision
		res.Quarantined += run.Quarantined
		res.DefenseProbes += run.DefenseProbes
		for _, b := range run.Undefended.BlameSummary() {
			blames[b.Blame] += b.Count
		}
	}
	n := float64(len(res.Runs))
	res.UndefendedSubnetPrecision /= n
	res.UndefendedSubnetRecall /= n
	res.DefendedSubnetPrecision /= n
	res.DefendedSubnetRecall /= n
	res.UndefendedAddrPrecision /= n
	res.DefendedAddrPrecision /= n
	for _, k := range netsim.FaultKinds {
		if n, ok := blames[k.String()]; ok {
			res.Blames = append(res.Blames, groundtruth.BlameCount{Blame: k.String(), Count: n})
		}
	}
	return res, nil
}

// AdversarialSweep runs the committed ensemble under every adversarial
// regime, in canonical order.
func AdversarialSweep(seeds []int64) ([]*AdversarialResult, error) {
	var out []*AdversarialResult
	for _, regime := range AdversarialRegimes {
		res, err := AdversarialEnsemble(regime, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
