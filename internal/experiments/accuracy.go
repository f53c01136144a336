package experiments

import (
	"fmt"

	"tracenet/internal/groundtruth"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// Regime names one collection condition of the accuracy ensemble.
type Regime string

const (
	// RegimeClean: no faults, no ECMP — the collector's best case, where
	// inaccuracy can only come from the algorithm itself (or from subnets
	// whose assigned addresses underdetermine the prefix).
	RegimeClean Regime = "clean"
	// RegimeFaulted: a random fault plan (flapping links, blackholes,
	// corruption, delay storms) with retry and circuit-breaker resilience
	// enabled.
	RegimeFaulted Regime = "faulted"
	// RegimeECMP: redundant backbone cross links with per-packet load
	// balancing — the hostile path-instability case.
	RegimeECMP Regime = "ecmp"
)

// Regimes is the canonical regime order for reports and gates.
var Regimes = []Regime{RegimeClean, RegimeFaulted, RegimeECMP}

// AccuracyRun is one seeded topology collected and scored under one regime.
type AccuracyRun struct {
	Seed  int64
	Score *groundtruth.Score
}

// AccuracyResult aggregates an ensemble of seeded runs under one regime.
type AccuracyResult struct {
	Regime Regime
	Runs   []AccuracyRun

	// Mean accuracy over the ensemble, each in [0,1].
	SubnetPrecision float64
	SubnetRecall    float64
	AddrPrecision   float64
	AddrRecall      float64
	// Verdict totals over the ensemble.
	Exact, Subset, Superset, Phantom, Missed int
}

// AccuracyFloor is a committed regression gate: ensemble-mean accuracy under
// a regime must never drop below these values.
type AccuracyFloor struct {
	SubnetPrecision float64
	SubnetRecall    float64
	AddrPrecision   float64
	AddrRecall      float64
}

// AccuracyFloors are the committed per-regime gates, enforced by the tier-1
// tests and scripts/check.sh over AccuracySeeds. The values are pinned
// slightly below the measured ensemble means at the time of commit, so any
// inference regression trips the gate while leaving headroom for intentional
// topology-generator changes (the runs themselves are seeded and fully
// deterministic — there is no run-to-run noise to absorb).
//
// Measured means at commit time (seeds 1–5, each run a collect.Run
// campaign):
//
//	clean:   subnet P/R 1.000/0.988, addr P/R 1.000/0.993
//	faulted: subnet P/R 1.000/0.838, addr P/R 1.000/0.807
//	ecmp:    subnet P/R 0.970/0.935, addr P/R 1.000/0.903
//
// Note the shape of the faulted row: the random fault plan blackholes and
// flaps parts of the topology, and a target whose probes run into them trips
// its own circuit breaker, which skips the rest of that trace's probes into
// the silent zone (without a breaker subnet recall reads 0.988). So recall
// falls — but precision holds at 1.0. That is the resilience property worth
// gating: a degraded collector must miss subnets, never invent them.
var AccuracyFloors = map[Regime]AccuracyFloor{
	RegimeClean:   {SubnetPrecision: 0.99, SubnetRecall: 0.95, AddrPrecision: 0.99, AddrRecall: 0.96},
	RegimeFaulted: {SubnetPrecision: 0.99, SubnetRecall: 0.80, AddrPrecision: 0.99, AddrRecall: 0.77},
	RegimeECMP:    {SubnetPrecision: 0.93, SubnetRecall: 0.90, AddrPrecision: 0.97, AddrRecall: 0.85},
}

// AccuracySeeds is the committed ensemble: the seeds the accuracy gate runs.
var AccuracySeeds = []int64{1, 2, 3, 4, 5}

// Violations compares the result against a floor and describes every metric
// below it; empty means the gate passes.
func (r *AccuracyResult) Violations(f AccuracyFloor) []string {
	var out []string
	check := func(name string, got, floor float64) {
		if got < floor {
			out = append(out, fmt.Sprintf("%s/%s %.3f below floor %.3f", r.Regime, name, got, floor))
		}
	}
	check("subnet-precision", r.SubnetPrecision, f.SubnetPrecision)
	check("subnet-recall", r.SubnetRecall, f.SubnetRecall)
	check("addr-precision", r.AddrPrecision, f.AddrPrecision)
	check("addr-recall", r.AddrRecall, f.AddrRecall)
	return out
}

// RunAccuracy collects one seeded random topology under the given regime and
// scores the result against the simulator's ground truth. A Spec names
// neither the generator's setting (no extra cross links unless the regime
// adds them) nor per-packet balancing, so the harness builds the network.
func RunAccuracy(regime Regime, seed int64) (*AccuracyRun, error) {
	spec := topo.RandomSpec{Seed: seed, ExtraLinks: -1}
	cfg := netsim.Config{Seed: seed}
	var popts probe.Options
	switch regime {
	case RegimeClean:
	case RegimeFaulted:
		popts.Retry = &probe.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffMax: 64, Jitter: 0.25}
		popts.Breaker = &probe.BreakerConfig{}
	case RegimeECMP:
		spec.ExtraLinks = 2
		cfg.Mode = netsim.PerPacket
	default:
		return nil, fmt.Errorf("unknown regime %q", regime)
	}

	topol, targets := topo.Random(spec)
	n := netsim.New(topol, cfg)
	if regime == RegimeFaulted {
		if err := n.InstallFaults(netsim.RandomFaultPlan(topol, seed)); err != nil {
			return nil, err
		}
	}
	rep, err := runOn(n, "vantage", targets, popts)
	if err != nil {
		return nil, fmt.Errorf("regime %s seed %d: %w", regime, seed, err)
	}

	truth := groundtruth.FromTopology(topol, groundtruth.Options{})
	score := truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))
	return &AccuracyRun{Seed: seed, Score: score}, nil
}

// AccuracyEnsemble runs every seed under one regime and aggregates.
func AccuracyEnsemble(regime Regime, seeds []int64) (*AccuracyResult, error) {
	if len(seeds) == 0 {
		seeds = AccuracySeeds
	}
	res := &AccuracyResult{Regime: regime}
	for _, seed := range seeds {
		run, err := RunAccuracy(regime, seed)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
		s := run.Score
		res.SubnetPrecision += s.SubnetPrecision
		res.SubnetRecall += s.SubnetRecall
		res.AddrPrecision += s.AddrPrecision
		res.AddrRecall += s.AddrRecall
		res.Exact += s.Count(groundtruth.VerdictExact)
		res.Subset += s.Count(groundtruth.VerdictSubset)
		res.Superset += s.Count(groundtruth.VerdictSuperset)
		res.Phantom += s.Count(groundtruth.VerdictPhantom)
		res.Missed += s.Count(groundtruth.VerdictMissed)
	}
	n := float64(len(res.Runs))
	res.SubnetPrecision /= n
	res.SubnetRecall /= n
	res.AddrPrecision /= n
	res.AddrRecall /= n
	return res, nil
}

// AccuracySweep runs the committed ensemble under every regime, in canonical
// regime order.
func AccuracySweep(seeds []int64) ([]*AccuracyResult, error) {
	var out []*AccuracyResult
	for _, regime := range Regimes {
		res, err := AccuracyEnsemble(regime, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
