package experiments

import (
	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// AblationResult compares the paper's design choice against its ablated
// variant on the same workload.
type AblationResult struct {
	Name string
	// Baseline and Ablated report the headline metric for the two variants;
	// Better reports whether the paper's choice wins, and Metric names what
	// was measured.
	Baseline, Ablated float64
	Metric            string
}

// AblationBottomUp measures §3.8's design choice: bottom-up subnet growth
// versus the top-down strawman, in probe packets spent on a chain of small
// point-to-point subnets (where top-down pays the full assumed-subnet cost).
func AblationBottomUp() (AblationResult, error) {
	run := func(cfg core.Config) (float64, error) {
		n := netsim.New(topo.Chain(5), netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			return 0, err
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
		res, err := core.Trace(pr, ipv4.MustParseAddr("10.9.255.2"), cfg)
		if err != nil {
			return 0, err
		}
		return float64(res.TotalProbes()), nil
	}
	base, err := run(core.Config{})
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := run(core.Config{TopDown: true, MinPrefixBits: 26})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "bottom-up vs top-down growth (§3.8)",
		Baseline: base,
		Ablated:  abl,
		Metric:   "probe packets for a 4-link chain",
	}, nil
}

// AblationHalfFill measures Algorithm 1's lines 19–21 stopping rule: probes
// spent on the sparse Figure 3 subnet with and without the rule.
func AblationHalfFill() (AblationResult, error) {
	run := func(cfg core.Config) (float64, error) {
		n := netsim.New(topo.Figure3(), netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			return 0, err
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
		res, err := core.Trace(pr, ipv4.MustParseAddr("10.0.5.2"), cfg)
		if err != nil {
			return 0, err
		}
		return float64(res.TotalProbes()), nil
	}
	base, err := run(core.Config{})
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := run(core.Config{DisableHalfFillStop: true, MinPrefixBits: 24})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "half-fill stopping rule (Alg. 1, lines 19–21)",
		Baseline: base,
		Ablated:  abl,
		Metric:   "probe packets on a sparse /24",
	}, nil
}

// AblationTwoIngress measures §3.7's two-ingress H6 tolerance under per-flow
// load balancing: the fraction of the parallel-entry subnet's members
// recovered with both entry points accepted versus the single-ingress
// variant, over a scan of flow identifiers.
func AblationTwoIngress() (AblationResult, error) {
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
			m := b.Router("M" + string(rune('0'+i)))
			b.AttachA(m, s, ipv4.MustParseAddr("10.7.0.0")+ipv4.Addr(i))
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

	members := func(cfg core.Config, flowID uint16) (int, error) {
		n := netsim.New(build(), netsim.Config{Mode: netsim.PerFlow})
		port, err := n.PortFor("vantage")
		if err != nil {
			return 0, err
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}, FlowID: flowID})
		res, err := core.Trace(pr, ipv4.MustParseAddr("10.255.2.2"), cfg)
		if err != nil {
			return 0, err
		}
		for _, s := range res.Subnets {
			if s.Prefix.Contains(ipv4.MustParseAddr("10.7.0.3")) {
				return len(s.Addrs), nil
			}
		}
		return 0, nil
	}

	var sumBase, sumAbl int
	for flowID := uint16(1); flowID <= 32; flowID++ {
		nb, err := members(core.Config{}, flowID)
		if err != nil {
			return AblationResult{}, err
		}
		na, err := members(core.Config{SingleIngress: true}, flowID)
		if err != nil {
			return AblationResult{}, err
		}
		sumBase += nb
		sumAbl += na
	}
	return AblationResult{
		Name:     "two-ingress H6 under load balancing (§3.7)",
		Baseline: float64(sumBase) / 32,
		Ablated:  float64(sumAbl) / 32,
		Metric:   "mean members recovered from a 9-interface dual-entry subnet",
	}, nil
}

// AblationRetry measures §3.8's re-probe-on-silence choice: collected-subnet
// count over the Figure 3 workload at 30% reply loss, with and without the
// retry.
func AblationRetry() (AblationResult, error) {
	run := func(opts probe.Options) (float64, error) {
		collected := 0
		for seed := int64(0); seed < 16; seed++ {
			n := netsim.New(topo.Figure3(), netsim.Config{LossRate: 0.3, Seed: seed})
			port, err := n.PortFor("vantage")
			if err != nil {
				return 0, err
			}
			pr := probe.New(port, port.LocalAddr(), opts)
			res, err := core.Trace(pr, ipv4.MustParseAddr("10.0.5.2"), core.Config{})
			if err != nil {
				return 0, err
			}
			for _, s := range res.Subnets {
				if s.Prefix.Bits() < 32 {
					collected++
				}
			}
		}
		return float64(collected) / 16, nil
	}
	base, err := run(probe.Options{Cache: true})
	if err != nil {
		return AblationResult{}, err
	}
	abl, err := run(probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "re-probe on silence (§3.8)",
		Baseline: base,
		Ablated:  abl,
		Metric:   "mean subnets collected per session at 30% loss",
	}, nil
}

// entryTopo builds a multi-access /27 reachable through `entries` equal-cost
// ingress routers, plus a destination host behind its first member.
func entryTopo(entries int) *netsim.Topology {
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	a := b.Subnet("10.1.0.0/30")
	b.Attach(v, a, "10.1.0.1")
	b.Attach(r1, a, "10.1.0.2")

	s := b.Subnet("10.1.64.0/27")
	for i := 0; i < entries; i++ {
		e := b.Router("E" + string(rune('0'+i)))
		up := b.SubnetP(ipv4.NewPrefix(ipv4.MustParseAddr("10.1.16.0")+ipv4.Addr(16*i), 31))
		b.AttachA(r1, up, up.Prefix.Base())
		b.AttachA(e, up, up.Prefix.Base()+1)
		b.AttachA(e, s, ipv4.MustParseAddr("10.1.64.0")+ipv4.Addr(i+1))
	}
	var first *netsim.Router
	for m := 4; m <= 20; m++ {
		r := b.Router("M" + string(rune('a'+m)))
		b.AttachA(r, s, ipv4.MustParseAddr("10.1.64.0")+ipv4.Addr(m))
		if first == nil {
			first = r
		}
	}
	d := b.Host("dest")
	ds := b.Subnet("10.1.128.0/30")
	b.Attach(first, ds, "10.1.128.1")
	b.Attach(d, ds, "10.1.128.2")
	return b.MustBuild()
}

// EntryLimitation characterizes the paper's fixed-ingress-router assumption
// (§3.2(ii)): the algorithm presumes a subnet is entered through a single
// ingress router, with exactly one contra-pivot interface one hop closer
// than the rest (H3). A subnet reachable through several equal-cost ingress
// routers has several interfaces at that distance, so H3's
// second-contra-pivot rule (or H6's entry check) shrinks it prematurely.
// The result maps ingress count to the mean fraction of the 17-member LAN
// recovered over a scan of flow identifiers: single-ingress subnets are
// collected whole, multi-ingress ones collapse.
func EntryLimitation() (map[int]float64, error) {
	out := map[int]float64{}
	for entries := 1; entries <= 3; entries++ {
		const runs = 16
		total := 0
		for run := 0; run < runs; run++ {
			n := netsim.New(entryTopo(entries), netsim.Config{Mode: netsim.PerFlow})
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			pr := probe.New(port, port.LocalAddr(), probe.Options{
				Cache: true, Retry: &probe.RetryPolicy{}, FlowID: uint16(run + 1),
			})
			res, err := core.Trace(pr, ipv4.MustParseAddr("10.1.128.2"), core.Config{})
			if err != nil {
				return nil, err
			}
			for _, s := range res.Subnets {
				if s.Prefix.Contains(ipv4.MustParseAddr("10.1.64.4")) {
					total += len(s.Addrs)
				}
			}
		}
		out[entries] = float64(total) / runs / float64(17+entries)
	}
	return out, nil
}
