// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4), plus the §3.6 probing-overhead model and the
// ablations listed in DESIGN.md. Each harness is deterministic given its
// seed and returns the rows/series the paper reports; the cmd/experiments
// binary and the repository-level benchmarks print them.
package experiments

import (
	"fmt"

	"tracenet/internal/core"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
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
	// Probes is the total packet count of the collection run.
	Probes uint64
}

// RunResearch traces every target of the research network from its vantage
// point and evaluates the collected subnets against the ground truth.
func RunResearch(r *topo.Research, seed int64) (*ResearchResult, error) {
	net := netsim.New(r.Topo, netsim.Config{Seed: seed})
	port, err := net.PortFor("vantage")
	if err != nil {
		return nil, err
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	sess := core.NewSession(pr, core.Config{})
	for _, target := range r.Targets() {
		if _, err := sess.Trace(target); err != nil {
			return nil, fmt.Errorf("experiments: tracing %v: %w", target, err)
		}
	}

	truth := ResearchTruth(r)
	return &ResearchResult{
		Name:      r.Name,
		PaperEval: truth.Paper(truth.Score(CollectedSubnets(sess.Subnets()))),
		Probes:    pr.Stats().Sent,
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
	return RunResearch(topo.Internet2(), seed)
}

// Table2GEANT reproduces Table 2: tracenet over the GEANT-like network.
func Table2GEANT(seed int64) (*ResearchResult, error) {
	return RunResearch(topo.GEANT(), seed)
}

// CollectedSubnets extracts the distinct observed subnets from a session's
// subnets, first observation first. Subnets of a single address (/32) are
// the paper's "un-subnetized" class and are not subnets.
func CollectedSubnets(subnets []*core.Subnet) []groundtruth.CollectedSubnet {
	seen := map[ipv4.Prefix]bool{}
	var out []groundtruth.CollectedSubnet
	for _, s := range subnets {
		if s.Prefix.Bits() >= 32 || seen[s.Prefix] {
			continue
		}
		seen[s.Prefix] = true
		out = append(out, groundtruth.CollectedSubnet{Prefix: s.Prefix, Addrs: s.Addrs})
	}
	return out
}
