package experiments

import (
	"sort"

	"tracenet/internal/alias"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/subnetinfer"
	"tracenet/internal/topo"
	"tracenet/internal/trace"
)

// OnlineVsOfflineResult compares tracenet's online subnet collection against
// the paper's own prior offline approach [7]: inferring subnets from
// traceroute output as a post-processing step (§2).
type OnlineVsOfflineResult struct {
	// OfflineDist / OnlineDist are the Table-1-style classifications of the
	// two approaches against the same ground truth.
	OfflineDist, OnlineDist   groundtruth.Distribution
	OfflineExact, OnlineExact float64
	// OfflineAddrs is how many addresses traceroute gave the offline
	// inference to work with; OnlineAddrs is tracenet's haul.
	OfflineAddrs, OnlineAddrs int
}

// OnlineVsOffline runs both pipelines over the Internet2-like network.
func OnlineVsOffline(seed int64) (*OnlineVsOfflineResult, error) {
	r := topo.Internet2()
	truth := ResearchTruth(r)
	out := &OnlineVsOfflineResult{}

	// Offline: traceroute everything, then infer subnets from the hops.
	{
		pr, err := baselineProber(r, seed, probe.Options{})
		if err != nil {
			return nil, err
		}
		byAddr := map[ipv4.Addr]int{}
		for _, target := range r.Targets() {
			route, err := trace.Run(pr, target, trace.Options{})
			if err != nil {
				return nil, err
			}
			for _, h := range route.Hops {
				if !h.Anonymous() {
					if prev, ok := byAddr[h.Addr]; !ok || h.TTL < prev {
						byAddr[h.Addr] = h.TTL
					}
				}
			}
		}
		obs := make([]subnetinfer.Observation, 0, len(byAddr))
		for a, d := range byAddr {
			obs = append(obs, subnetinfer.Observation{Addr: a, Dist: d})
		}
		sort.Slice(obs, func(i, j int) bool { return obs[i].Addr < obs[j].Addr })
		var inferred []groundtruth.CollectedSubnet
		for _, s := range subnetinfer.Infer(obs, subnetinfer.Options{}) {
			inferred = append(inferred, groundtruth.CollectedSubnet{Prefix: s.Prefix, Addrs: s.Addrs})
		}
		eval := truth.Paper(truth.Score(inferred))
		out.OfflineDist, out.OfflineExact = eval.Dist, eval.ExactRate
		out.OfflineAddrs = len(byAddr)
	}

	// Online: tracenet.
	_, rep, err := runSpec(daemon.Spec{Topology: "internet2", Seed: seed})
	if err != nil {
		return nil, err
	}
	eval := truth.Paper(truth.Score(groundtruth.FromCoreSubnets(rep.Subnets())))
	out.OnlineDist, out.OnlineExact = eval.Dist, eval.ExactRate
	out.OnlineAddrs = len(discovered(rep))
	return out, nil
}

// RouterMapResult evaluates the full router-level-map pipeline: tracenet
// collects addresses and subnets, Ally-style alias resolution (pruned by the
// same-subnet constraint) groups them into routers, and the grouping is
// scored against the simulator's ground truth.
type RouterMapResult struct {
	// Addresses resolved, alias pairs found, and ground-truth routers hit.
	Addresses, Groups, TrueRouters int
	// Precision: fraction of inferred same-router pairs that are truly on
	// one router. Recall: fraction of true same-router pairs (among the
	// resolved addresses) that were inferred.
	Precision, Recall float64
	// ProbesWithConstraint and ProbesWithout compare the alias-probing cost
	// with and without tracenet's subnet constraint.
	ProbesWithConstraint, ProbesWithout uint64
}

// RouterMap runs the pipeline over the Figure 3 network (small enough for
// exhaustive pairwise resolution).
func RouterMap(seed int64) (*RouterMapResult, error) {
	c, rep, err := runSpec(daemon.Spec{Topology: "figure3", Seed: seed, Targets: []string{"10.0.5.2", "10.0.4.1", "10.0.3.1"}})
	if err != nil {
		return nil, err
	}
	top, port := c.Scenario.Topo, c.Port
	var subnets [][]ipv4.Addr
	seen := map[ipv4.Addr]bool{}
	var addrs []ipv4.Addr
	for _, s := range rep.Subnets() {
		subnets = append(subnets, s.Addrs)
		for _, a := range s.Addrs {
			// Keep router interfaces only (skip the vantage/destination
			// hosts, which are not part of the router-level map).
			if iface := top.IfaceByAddr(a); iface == nil || iface.Router.IsHost {
				continue
			}
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
	}

	res := &RouterMapResult{Addresses: len(addrs)}

	resolve := func(constrained bool) ([][]ipv4.Addr, uint64, error) {
		rv := alias.NewResolver(port, port.LocalAddr())
		var cs []alias.Constraint
		if constrained {
			cs = append(cs, alias.SameSubnetConstraint(subnets))
		}
		groups, err := rv.Resolve(addrs, cs...)
		return groups, rv.Probes(), err
	}

	groups, cost, err := resolve(true)
	if err != nil {
		return nil, err
	}
	res.ProbesWithConstraint = cost
	if _, costU, err := resolve(false); err != nil {
		return nil, err
	} else {
		res.ProbesWithout = costU
	}
	res.Groups = len(groups)

	// Score pairs against ground truth.
	groupOf := map[ipv4.Addr]int{}
	for gi, g := range groups {
		for _, a := range g {
			groupOf[a] = gi
		}
	}
	routers := map[*netsim.Router]bool{}
	var tp, fp, fn int
	for i := 0; i < len(addrs); i++ {
		routers[top.IfaceByAddr(addrs[i]).Router] = true
		for j := i + 1; j < len(addrs); j++ {
			same := top.IfaceByAddr(addrs[i]).Router == top.IfaceByAddr(addrs[j]).Router
			inferred := groupOf[addrs[i]] == groupOf[addrs[j]]
			switch {
			case same && inferred:
				tp++
			case !same && inferred:
				fp++
			case same && !inferred:
				fn++
			}
		}
	}
	res.TrueRouters = len(routers)
	if tp+fp > 0 {
		res.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		res.Recall = float64(tp) / float64(tp+fn)
	}
	return res, nil
}
