package experiments

import (
	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/discarte"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
	"tracenet/internal/trace"
)

// CoverageResult quantifies the paper's motivating claim (Figure 1, §1):
// on the same end-to-end path, tracenet discovers the addresses traceroute
// misses, marks multi-access versus point-to-point links, and annotates
// subnets with their masks — at a probing cost traceroute doesn't pay.
type CoverageResult struct {
	// TracerouteAddrs, DiscarteAddrs, and TracenetAddrs are distinct
	// addresses discovered by each collector.
	TracerouteAddrs, DiscarteAddrs, TracenetAddrs int
	// Per-collector packet costs.
	TracerouteProbes, DiscarteProbes, TracenetProbes uint64
	// Subnets and MultiAccess count the collected subnets and how many of
	// them are multi-access LANs — information only tracenet produces.
	Subnets, MultiAccess int
}

// Coverage runs traceroute and tracenet over the same Internet2-like network
// and target set and compares discovery yield.
func Coverage(seed int64) (*CoverageResult, error) {
	r := topo.Internet2()
	out := &CoverageResult{}

	// Baseline traceroute.
	{
		pr, err := baselineProber(r, seed, probe.Options{})
		if err != nil {
			return nil, err
		}
		addrs := map[ipv4.Addr]bool{}
		for _, target := range r.Targets() {
			route, err := trace.Run(pr, target, trace.Options{})
			if err != nil {
				return nil, err
			}
			for _, a := range route.Addrs() {
				addrs[a] = true
			}
		}
		out.TracerouteAddrs = len(addrs)
		out.TracerouteProbes = pr.Stats().Sent
	}

	// DisCarte-style record-route baseline (§2): about two addresses per
	// hop for the first nine hops.
	{
		pr, err := baselineProber(r, seed, probe.Options{RecordRoute: true})
		if err != nil {
			return nil, err
		}
		addrs := map[ipv4.Addr]bool{}
		for _, target := range r.Targets() {
			route, err := discarte.Run(pr, target, discarte.Options{})
			if err != nil {
				return nil, err
			}
			for _, a := range route.Addrs() {
				addrs[a] = true
			}
		}
		out.DiscarteAddrs = len(addrs)
		out.DiscarteProbes = pr.Stats().Sent
	}

	// tracenet.
	_, rep, err := runSpec(daemon.Spec{Topology: "internet2", Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, s := range rep.Subnets() {
		if s.Prefix.Bits() < 32 {
			out.Subnets++
			if !s.PointToPoint() {
				out.MultiAccess++
			}
		}
	}
	out.TracenetAddrs = len(discovered(rep))
	out.TracenetProbes = rep.Stats.WireProbes
	return out, nil
}

// baselineProber dials a prober at the research network's vantage, on a
// fresh network, for the collectors that are not tracenet.
func baselineProber(r *topo.Research, seed int64, opts probe.Options) (*probe.Prober, error) {
	port, err := netsim.New(r.Topo, netsim.Config{Seed: seed}).PortFor("vantage")
	if err != nil {
		return nil, err
	}
	opts.Cache = true
	return probe.New(port, port.LocalAddr(), opts), nil
}

// discovered is every address a campaign found: its responding hops and its
// subnets' members.
func discovered(rep *collect.Report) map[ipv4.Addr]bool {
	addrs := map[ipv4.Addr]bool{}
	for _, t := range rep.Targets {
		for _, h := range t.Result.Hops {
			if !h.Anonymous() {
				addrs[h.Addr] = true
			}
		}
	}
	for _, s := range rep.Subnets() {
		for _, a := range s.Addrs {
			addrs[a] = true
		}
	}
	return addrs
}
