package experiments

import (
	"tracenet/internal/core"
	"tracenet/internal/daemon"
)

// HeuristicStats reports how often each rule terminated subnet growth over a
// full Internet2-like collection campaign — an analysis the paper does not
// print but that its §3.5/§3.6 discussion implies: on a well-numbered network
// most explorations end at the half-fill rule or at an H2/H6 boundary with a
// neighbouring address block. Each of the campaign's distinct subnets counts
// once, under the rule that stopped its growth.
func HeuristicStats(seed int64) (map[core.StopReason]int, error) {
	_, rep, err := runSpec(daemon.Spec{Topology: "internet2", Seed: seed})
	if err != nil {
		return nil, err
	}
	out := map[core.StopReason]int{}
	for _, sub := range rep.Subnets() {
		out[sub.Stop]++
	}
	return out, nil
}
