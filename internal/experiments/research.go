// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4), plus the §3.6 probing-overhead model and the
// ablations listed in DESIGN.md. Each harness is deterministic given its
// seed and returns the rows/series the paper reports; the cmd/experiments
// binary and the repository-level benchmarks print them.
//
// A harness that traces a target list runs it through collect.Run, the
// campaign tracenet and tracenetd run, so a table's numbers are the
// product's numbers. The adversarial ensemble is the one exception (see
// collectAdversarial).
package experiments

import (
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/topo"
)

// ResearchResult is the outcome of a Table 1 / Table 2 run: tracenet over a
// research network from a single vantage point, compared against the derived
// original topology.
type ResearchResult struct {
	Name string
	// PaperEval holds the Table 1/2 cross-tabulation (Dist), the §4.1
	// headline rates, and the similarities of equations (3) and (5).
	groundtruth.PaperEval
	// Probes is the campaign's wire-probe total: the "wire probes" figure
	// tracenet prints for the same topology and seed.
	Probes uint64
}

// runResearch runs `tracenet -topo topology -seed seed` over the research
// network r and evaluates the campaign's subnets against the ground truth.
func runResearch(r *topo.Research, topology string, seed int64) (*ResearchResult, error) {
	_, rep, err := runSpec(daemon.Spec{Topology: topology, Seed: seed})
	if err != nil {
		return nil, err
	}
	truth := ResearchTruth(r)
	return &ResearchResult{
		Name:      r.Name,
		PaperEval: truth.Paper(truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))),
		Probes:    rep.Stats.WireProbes,
	}, nil
}

// ResearchTruth is the scoring universe of a Table 1/2 run: exactly the
// research network's original subnets, with their members and the
// responsiveness annotations that attribute misses and underestimations.
func ResearchTruth(r *topo.Research) *groundtruth.Truth {
	subs := make([]groundtruth.TrueSubnet, len(r.Originals))
	for i, o := range r.Originals {
		subs[i] = groundtruth.TrueSubnet{
			Prefix:                o.Prefix,
			Addrs:                 r.Topo.SubnetByPrefix(o.Prefix).MemberAddrs(),
			Unresponsive:          o.TotallyUnresponsive,
			PartiallyUnresponsive: o.PartiallyUnresponsive,
		}
	}
	return groundtruth.FromSubnets(subs)
}

// Table1Internet2 reproduces Table 1: tracenet over the Internet2-like
// network.
func Table1Internet2(seed int64) (*ResearchResult, error) {
	return runResearch(topo.Internet2(), "internet2", seed)
}

// Table2GEANT reproduces Table 2: tracenet over the GEANT-like network.
func Table2GEANT(seed int64) (*ResearchResult, error) {
	return runResearch(topo.GEANT(), "geant", seed)
}
