package experiments

import (
	"fmt"
	"sync"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// VantageRun is the outcome of tracing the common target set from one
// vantage point.
type VantageRun struct {
	Vantage string
	// Subnets are the distinct collected subnets (including /32
	// un-subnetized records), across all ISPs.
	Subnets []*core.Subnet
	// Prefixes is the exact-prefix set (bits < 32) for cross-validation.
	Prefixes map[ipv4.Prefix]bool
}

// ISPResult bundles the three vantage runs of the §4.2 experiments.
type ISPResult struct {
	Profiles []topo.ISPProfile
	Targets  map[string][]ipv4.Addr
	Runs     []VantageRun
}

// RunISP traces the common target set from all three vantage points. Each
// vantage gets a freshly generated (structurally identical) topology so that
// rate-limiter state never leaks between runs, mirroring independent
// measurement campaigns. The campaigns share nothing and run concurrently;
// each is individually deterministic, so the combined result is too.
func RunISP(seed int64) (*ISPResult, error) {
	res := &ISPResult{Profiles: topo.ISPProfiles()}
	runs := make([]*VantageRun, len(topo.VantageNames))
	errs := make([]error, len(topo.VantageNames))
	targets := make([]map[string][]ipv4.Addr, len(topo.VantageNames))
	var wg sync.WaitGroup
	for i, vantage := range topo.VantageNames {
		wg.Add(1)
		go func(i int, vantage string) {
			defer wg.Done()
			// Same structure every campaign; a different flaky-router draw
			// per vantage campaign.
			sc := topo.ISPCores(seed, seed+1000*int64(i+1))
			targets[i] = sc.Targets
			runs[i], errs[i] = runVantage(sc, vantage, seed+int64(i)*101, probe.Options{FlowID: uint16(7 + i)})
		}(i, vantage)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Targets = targets[0]
	for _, run := range runs {
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

// runVantage traces the ISP cores' common target set from vantage. Light
// reply loss plus the rate limiting encoded in the topology produce the
// per-vantage disagreement the paper observes; a Spec names neither the loss
// rate nor the flow identifier.
func runVantage(sc *topo.ISPScape, vantage string, seed int64, opts probe.Options) (*VantageRun, error) {
	net := netsim.New(sc.Topo, netsim.Config{Mode: netsim.PerFlow, LossRate: 0.02, Seed: seed})
	rep, err := runOn(net, vantage, sc.TargetsFor(), opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", vantage, err)
	}
	run := &VantageRun{
		Vantage:  vantage,
		Subnets:  rep.Subnets(),
		Prefixes: map[ipv4.Prefix]bool{},
	}
	for _, s := range run.Subnets {
		if s.Prefix.Bits() < 32 {
			run.Prefixes[s.Prefix] = true
		}
	}
	return run, nil
}

// Figure6 computes the Venn distribution of exactly matching subnets among
// the three vantage points.
func (r *ISPResult) Figure6() Venn3 {
	return VennOf(r.Runs[0].Prefixes, r.Runs[1].Prefixes, r.Runs[2].Prefixes)
}

// Venn3 holds the seven-region distribution of subnets observed by three
// vantage points (the paper's Figure 6).
type Venn3 struct {
	OnlyA, OnlyB, OnlyC int
	AB, AC, BC          int // pairwise-only regions
	ABC                 int
}

// VennOf computes the three-way distribution of exactly-matching collected
// subnet prefixes.
func VennOf(a, b, c map[ipv4.Prefix]bool) Venn3 {
	union := map[ipv4.Prefix]bool{}
	for p := range a {
		union[p] = true
	}
	for p := range b {
		union[p] = true
	}
	for p := range c {
		union[p] = true
	}
	var v Venn3
	for p := range union {
		switch {
		case a[p] && b[p] && c[p]:
			v.ABC++
		case a[p] && b[p]:
			v.AB++
		case a[p] && c[p]:
			v.AC++
		case b[p] && c[p]:
			v.BC++
		case a[p]:
			v.OnlyA++
		case b[p]:
			v.OnlyB++
		default:
			v.OnlyC++
		}
	}
	return v
}

// TotalA returns the number of subnets vantage A observed.
func (v Venn3) TotalA() int { return v.OnlyA + v.AB + v.AC + v.ABC }

// TotalB returns the number of subnets vantage B observed.
func (v Venn3) TotalB() int { return v.OnlyB + v.AB + v.BC + v.ABC }

// TotalC returns the number of subnets vantage C observed.
func (v Venn3) TotalC() int { return v.OnlyC + v.AC + v.BC + v.ABC }

// AgreementAll returns, for each vantage, the fraction of its subnets also
// observed by both other vantages (the paper's "around 60%" number).
func (v Venn3) AgreementAll() (fa, fb, fc float64) {
	if t := v.TotalA(); t > 0 {
		fa = float64(v.ABC) / float64(t)
	}
	if t := v.TotalB(); t > 0 {
		fb = float64(v.ABC) / float64(t)
	}
	if t := v.TotalC(); t > 0 {
		fc = float64(v.ABC) / float64(t)
	}
	return fa, fb, fc
}

// AgreementAny returns, for each vantage, the fraction of its subnets also
// observed by at least one other vantage (the paper's "roughly 80%" number).
func (v Venn3) AgreementAny() (fa, fb, fc float64) {
	if t := v.TotalA(); t > 0 {
		fa = float64(v.AB+v.AC+v.ABC) / float64(t)
	}
	if t := v.TotalB(); t > 0 {
		fb = float64(v.AB+v.BC+v.ABC) / float64(t)
	}
	if t := v.TotalC(); t > 0 {
		fc = float64(v.AC+v.BC+v.ABC) / float64(t)
	}
	return fa, fb, fc
}

// IPDistribution is one panel row of Figure 7: per ISP, how many target
// addresses were probed, how many addresses ended up inside subnets, and how
// many were found but could not be subnetized beyond /32.
type IPDistribution struct {
	ISP          string
	Targets      int
	Subnetized   int
	Unsubnetized int
}

// Figure7 computes the per-ISP IP address distribution for one vantage run.
func (r *ISPResult) Figure7(run int) []IPDistribution {
	v := r.Runs[run]
	out := make([]IPDistribution, 0, len(r.Profiles))
	for _, p := range r.Profiles {
		d := IPDistribution{ISP: p.Name, Targets: len(r.Targets[p.Name])}
		sub := map[ipv4.Addr]bool{}
		unsub := map[ipv4.Addr]bool{}
		for _, s := range v.Subnets {
			for _, a := range s.Addrs {
				if !p.Block.Contains(a) {
					continue
				}
				if s.Prefix.Bits() < 32 {
					sub[a] = true
				} else {
					unsub[a] = true
				}
			}
		}
		for a := range sub {
			delete(unsub, a)
		}
		d.Subnetized = len(sub)
		d.Unsubnetized = len(unsub)
		out = append(out, d)
	}
	return out
}

// Figure8 counts collected subnets (bits < 32) per ISP for one vantage run.
func (r *ISPResult) Figure8(run int) map[string]int {
	v := r.Runs[run]
	out := map[string]int{}
	for p := range v.Prefixes {
		if isp := r.ispOf(p.Base()); isp != "" {
			out[isp]++
		}
	}
	return out
}

// Figure9 computes the subnet prefix-length frequency for one vantage run
// (the paper plots it on a log scale: /31 and /30 dominate, /29 follows,
// then a sharp drop with a small tail of large subnets).
func (r *ISPResult) Figure9(run int) map[int]int {
	out := map[int]int{}
	for p := range r.Runs[run].Prefixes {
		if r.ispOf(p.Base()) != "" {
			out[p.Bits()]++
		}
	}
	return out
}

func (r *ISPResult) ispOf(a ipv4.Addr) string {
	for _, p := range r.Profiles {
		if p.Block.Contains(a) {
			return p.Name
		}
	}
	return ""
}

// Table3Row is one row of Table 3: subnets collected per probing protocol.
type Table3Row struct {
	ISP            string
	ICMP, UDP, TCP int
}

// Table3 runs tracenet from the first vantage point ("rice") with ICMP, UDP,
// and TCP probing and counts collected subnets per ISP.
func Table3(seed int64) ([]Table3Row, error) {
	profiles := topo.ISPProfiles()
	counts := map[probe.Protocol]map[string]int{}
	for _, proto := range []probe.Protocol{probe.ICMP, probe.UDP, probe.TCP} {
		sc := topo.ISPCores(seed, seed+1000)
		run, err := runVantage(sc, topo.VantageNames[0], seed, probe.Options{Protocol: proto})
		if err != nil {
			return nil, err
		}
		byISP := map[string]int{}
		for p := range run.Prefixes {
			for _, prof := range profiles {
				if prof.Block.Contains(p.Base()) {
					byISP[prof.Name]++
				}
			}
		}
		counts[proto] = byISP
	}
	rows := make([]Table3Row, 0, len(profiles))
	for _, prof := range profiles {
		rows = append(rows, Table3Row{
			ISP:  prof.Name,
			ICMP: counts[probe.ICMP][prof.Name],
			UDP:  counts[probe.UDP][prof.Name],
			TCP:  counts[probe.TCP][prof.Name],
		})
	}
	return rows, nil
}
