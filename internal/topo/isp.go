package topo

import (
	"fmt"
	"math/rand"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
)

// ISPProfile parameterizes one simulated commercial ISP. Counts are scaled
// roughly 1:10 from the paper's observations (Table 3, Figures 7–9) so the
// full multi-vantage experiment runs in seconds; ratios between ISPs and
// between prefix lengths preserve the paper's shapes.
type ISPProfile struct {
	Name  string
	Block ipv4.Prefix // the ISP's address block (for attribution)

	// Links and LANs per prefix length. Point-to-point entries hang off
	// aggregation routers; multi-access LANs are well utilized so they
	// collect at their true size.
	P2P31, P2P30 int
	LANs         map[int]int // prefix length -> count (bits <= 29 or large LANs)

	// Lonely is the number of /30 links whose far side never answers: their
	// targets come out un-subnetized (/32), the dominant class at SprintLink
	// in Figure 7.
	Lonely int

	// UDPFrac and TCPFrac are the fractions of routers answering UDP and TCP
	// probes (Table 3: ICMP ≫ UDP ≫ TCP, with per-ISP variation).
	UDPFrac, TCPFrac float64

	// FlakyFrac is the fraction of destination routers (point-to-point far
	// ends and LAN members) that ignore direct probes during a given
	// measurement campaign. Which routers are flaky is drawn from the
	// campaign seed, so campaigns from different vantage points observe
	// different subsets — the paper's §4.2 explanation of cross-vantage
	// disagreement (load-dependent rate limiting and responsiveness).
	FlakyFrac float64

	// BorderChain is the length of the entry chain between each border
	// router and the ring core. Vantage v peers only with border v, so the
	// chain's subnets appear exclusively on v's paths — the paper's "around
	// 20% of subnets being observed uniquely by each vantage point is a
	// natural outcome stemming from different border routers appearing in
	// the paths" (§4.2). Consecutive chain routers are joined by parallel
	// /31 pairs balanced per flow, adding the "various paths being taken
	// toward the destinations".
	BorderChain int
}

// ISPProfiles returns the four profiles used throughout the §4.2
// experiments: SprintLink, NTT America, Level3, AboveNet.
func ISPProfiles() []ISPProfile {
	return []ISPProfile{
		{
			Name:  "SprintLink",
			Block: ipv4.MustParsePrefix("20.0.0.0/12"),
			P2P31: 140, P2P30: 150,
			LANs:    map[int]int{29: 40, 28: 10, 27: 3, 26: 2},
			Lonely:  90,
			UDPFrac: 0.41, TCPFrac: 0.004,
			FlakyFrac:   0.22,
			BorderChain: 7,
		},
		{
			Name:  "NTTAmerica",
			Block: ipv4.MustParsePrefix("21.0.0.0/12"),
			P2P31: 40, P2P30: 45,
			LANs:    map[int]int{29: 18, 28: 6, 27: 3, 24: 2, 23: 1, 22: 1},
			Lonely:  10,
			UDPFrac: 0.07, TCPFrac: 0.003,
			FlakyFrac:   0.14,
			BorderChain: 4,
		},
		{
			Name:  "Level3",
			Block: ipv4.MustParsePrefix("22.0.0.0/12"),
			P2P31: 110, P2P30: 130,
			LANs:    map[int]int{29: 35, 28: 8, 27: 2, 26: 1},
			Lonely:  35,
			UDPFrac: 0.30, TCPFrac: 0.004,
			FlakyFrac:   0.19,
			BorderChain: 6,
		},
		{
			Name:  "AboveNet",
			Block: ipv4.MustParsePrefix("23.0.0.0/12"),
			P2P31: 70, P2P30: 85,
			LANs:    map[int]int{29: 22, 28: 5, 27: 1},
			Lonely:  20,
			UDPFrac: 0.33, TCPFrac: 0.017,
			FlakyFrac:   0.17,
			BorderChain: 5,
		},
	}
}

// VantageNames are the three PlanetLab-like vantage points of §4.2.
var VantageNames = []string{"rice", "uoregon", "umass"}

// ISPScape is the full multi-vantage experiment topology: four ISP cores,
// three vantage hosts entering each ISP at a different border router, and
// the per-ISP target address sets.
type ISPScape struct {
	Topo     *netsim.Topology
	Profiles []ISPProfile
	// Targets[ispName] is the destination set drawn from that ISP.
	Targets map[string][]ipv4.Addr
}

// TargetsFor returns the combined target set, ISP by ISP in profile order.
func (sc *ISPScape) TargetsFor() []ipv4.Addr {
	var out []ipv4.Addr
	for _, p := range sc.Profiles {
		out = append(out, sc.Targets[p.Name]...)
	}
	return out
}

// ISPCores builds the §4.2 experiment topology. Each ISP is a 12-router
// ring core with two aggregation routers per core router; point-to-point
// links and LANs hang off the aggregation layer. Three borders per ISP
// attach at ring positions 0, 4, and 8 through vantage-specific entry
// chains; vantage v peers only with border v of every ISP.
//
// structSeed fixes the network structure and protocol-responsiveness mix
// (identical for every campaign); campaignSeed draws the per-campaign flaky
// router set, modelling the time-varying responsiveness that makes two
// measurement campaigns disagree.
func ISPCores(structSeed, campaignSeed int64) *ISPScape {
	structRNG := rand.New(rand.NewSource(structSeed))
	campaignRNG := rand.New(rand.NewSource(campaignSeed))
	b := netsim.NewBuilder()
	sc := &ISPScape{Profiles: ISPProfiles(), Targets: map[string][]ipv4.Addr{}}

	// Vantage hosts and their transit routers.
	transits := make([]*netsim.Router, len(VantageNames))
	for i, name := range VantageNames {
		h := b.Host(name)
		acc := b.Subnet(fmt.Sprintf("192.168.%d.0/30", i))
		b.AttachA(h, acc, acc.Prefix.Base()+1)
		transits[i] = b.Router("transit-" + name)
		b.AttachA(transits[i], acc, acc.Prefix.Base()+2)
	}

	for k := range sc.Profiles {
		buildISP(b, structRNG, campaignRNG, &sc.Profiles[k], transits, sc)
	}

	sc.Topo = b.MustBuild()
	return sc
}

const ringSize = 12

// buildISP lays out one ISP core and registers its targets.
func buildISP(b *netsim.Builder, structRNG, campaignRNG *rand.Rand, p *ISPProfile, transits []*netsim.Router, sc *ISPScape) {
	al := &allocator{next: p.Block.Base()}
	// Protocol responsiveness is drawn per site, not per router: UDP
	// port-unreachable filtering (and TCP RST suppression) is a site-wide
	// policy in practice, so a dozen consecutive routers share one draw.
	// Correlation is what makes the fraction of *collected* subnets under
	// UDP track the per-router fraction (Table 3) instead of its square.
	routerCount := 0
	var siteMask netsim.ProtoMask
	newRouter := func(kind string, i int) *netsim.Router {
		if routerCount%12 == 0 {
			siteMask = drawProtoMix(structRNG, p)
		}
		routerCount++
		r := b.Router(fmt.Sprintf("%s-%s%d", p.Name, kind, i))
		r.IndirectProtos = netsim.ProtoMaskAll
		r.DirectProtos = siteMask
		return r
	}
	// flaky marks a destination router unresponsive to direct probes for
	// this campaign.
	flaky := func(r *netsim.Router, frac float64) {
		if frac > 0 && campaignRNG.Float64() < frac {
			r.DirectPolicy = netsim.PolicyNil
		}
	}

	link := func(bits int, a, c *netsim.Router) (ipv4.Prefix, *netsim.Iface, *netsim.Iface) {
		pr := al.alloc(bits)
		s := b.SubnetP(pr)
		var near, far *netsim.Iface
		if bits == 31 {
			near = b.AttachA(a, s, pr.Base())
			far = b.AttachA(c, s, pr.Base()+1)
		} else {
			near = b.AttachA(a, s, pr.Base()+1)
			far = b.AttachA(c, s, pr.Base()+2)
		}
		return pr, near, far
	}
	// spacedLink places a /31 in its own /28-aligned block. Same-head-end
	// point-to-point links in adjacent address ranges are indistinguishable
	// from one multi-access subnet to the heuristics (every link's
	// contra-pivot is the same router), so parallel and chain links are
	// spaced out the way operators number them.
	spacedLink := func(a, c *netsim.Router) {
		block := al.alloc(28)
		s := b.SubnetP(ipv4.NewPrefix(block.Base(), 31))
		b.AttachA(a, s, block.Base())
		b.AttachA(c, s, block.Base()+1)
	}

	// Ring core.
	ring := make([]*netsim.Router, ringSize)
	for i := range ring {
		ring[i] = newRouter("core", i)
	}
	for i := range ring {
		link(31, ring[i], ring[(i+1)%ringSize])
	}

	// Aggregation routers, two per core router. The uplink /30s are
	// allocated interleaved (all first uplinks, then all second uplinks) so
	// that address-adjacent uplinks head at *different* core routers —
	// sibling links of one device numbered from adjacent ranges are
	// indistinguishable from a single multi-access subnet to the heuristics
	// and would be merged (see spacedLink).
	var aggs []*netsim.Router
	for j := 0; j < 2; j++ {
		for i, c := range ring {
			a := newRouter("agg", i*2+j)
			link(30, c, a)
			aggs = append(aggs, a)
		}
	}
	// A "site" is an aggregation router plus every customer router behind
	// it: UDP/TCP filtering policy is uniform within a site, so the
	// fraction of subnets collectable over UDP tracks the per-site fraction
	// (Table 3) rather than its square.
	siteOf := map[*netsim.Router]netsim.ProtoMask{}
	for _, a := range aggs {
		siteOf[a] = drawProtoMix(structRNG, p)
		a.DirectProtos = siteOf[a]
	}
	nextAgg := 0
	agg := func() *netsim.Router {
		a := aggs[nextAgg%len(aggs)]
		nextAgg++
		return a
	}
	inherit := func(r *netsim.Router, a *netsim.Router) {
		r.DirectProtos = siteOf[a]
	}

	addTarget := func(a ipv4.Addr) { sc.Targets[p.Name] = append(sc.Targets[p.Name], a) }

	// Borders: vantage v peers only with border v and enters the core over
	// a chain of parallel /31 pairs; every subnet of the chain sits on v's
	// paths and on nobody else's.
	for v, tr := range transits {
		border := newRouter("border", v)
		peer := al.alloc(30)
		s := b.SubnetP(peer)
		b.AttachA(tr, s, peer.Base()+1)
		b.AttachA(border, s, peer.Base()+2)
		prev := border
		for i := 0; i < p.BorderChain; i++ {
			c := newRouter("bchain", v*100+i)
			// A bundle of five parallel /31s, flow-balanced: across the
			// campaign's many destination flows every member of the bundle
			// carries traffic and is collected.
			for j := 0; j < 5; j++ {
				spacedLink(prev, c)
			}
			prev = c
		}
		spacedLink(prev, ring[(v*4)%ringSize])
	}

	// Point-to-point payload links. Lonely links (silent near side) are
	// spaced into their own /28-aligned blocks: with the near side dark, a
	// depth-staggered responsive leaf in the adjacent range would be
	// accepted as a contra-pivot and two customer links would merge.
	leafN := 0
	p2p := func(bits int, lonely bool) {
		a := agg()
		leaf := newRouter("leaf", leafN)
		leafN++
		var near, far *netsim.Iface
		if lonely {
			block := al.alloc(28)
			s := b.SubnetP(ipv4.NewPrefix(block.Base(), bits))
			near = b.AttachA(a, s, block.Base()+1)
			far = b.AttachA(leaf, s, block.Base()+2)
		} else {
			_, near, far = link(bits, a, leaf)
		}
		inherit(leaf, a)
		if lonely {
			// The aggregation-side interface never answers: the far side is
			// discovered but cannot be subnetized beyond /32 (Figure 7's
			// un-subnetized class).
			near.Responsive = false
		} else {
			flaky(leaf, p.FlakyFrac)
		}
		addTarget(far.Addr)
	}
	for i := 0; i < p.P2P31; i++ {
		p2p(31, false)
	}
	for i := 0; i < p.P2P30; i++ {
		p2p(30, false)
	}
	for i := 0; i < p.Lonely; i++ {
		p2p(30, true)
	}

	// Multi-access LANs, well utilized (more than half of every growth
	// level) so they collect at their true prefix.
	lanN := 0
	for bits := 20; bits <= 29; bits++ {
		for i := 0; i < p.LANs[bits]; i++ {
			a := agg()
			pr := al.alloc(bits)
			s := b.SubnetP(pr)
			members := 1<<(32-bits)/2 + 1
			b.AttachA(a, s, pr.Base()+1)
			for m := 2; m <= members; m++ {
				r := newRouter("lan", lanN)
				lanN++
				inherit(r, a)
				b.AttachA(r, s, pr.Base()+ipv4.Addr(m))
				flaky(r, p.FlakyFrac*0.6)
			}
			addTarget(pr.Base() + 2)
			// A second target deeper in the LAN, like the paper's random
			// multi-address target sets.
			if members > 4 {
				addTarget(pr.Base() + ipv4.Addr(members/2+1))
			}
		}
	}

	// A block whose addresses never answer, reproducing Figure 7's "not all
	// target IP addresses responded": routed (the subnet exists at an
	// aggregation router) but the probed addresses are unassigned.
	dead := al.alloc(28)
	ds := b.SubnetP(dead)
	deadIface := b.AttachA(agg(), ds, dead.Base()+1)
	deadIface.Responsive = false
	for i := 0; i < 12; i++ {
		addTarget(dead.Base() + ipv4.Addr(2+i))
	}
}

// drawProtoMix draws one site's direct-probe responsiveness. TTL-exceeded
// generation is protocol-agnostic on real routers, so indirect responsiveness
// stays open; what varies per protocol is the willingness to answer probes
// addressed to the router itself — port unreachables for UDP are widely
// filtered and TCP probes almost never draw a RST from core routers
// (Table 3 and [9]).
func drawProtoMix(rng *rand.Rand, p *ISPProfile) netsim.ProtoMask {
	mask := netsim.ProtoMaskICMP
	if rng.Float64() < p.UDPFrac {
		mask |= netsim.ProtoMaskUDP
	}
	if rng.Float64() < p.TCPFrac*3 {
		mask |= netsim.ProtoMaskTCP
	}
	return mask
}
