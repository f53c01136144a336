// Package subnetinfer implements the offline subnet-inference baseline the
// paper contrasts itself against (Gunes & Sarac [7], "Inferring subnets in
// router-level topology collection studies"): a post-processing step that
// groups the IP addresses found in traceroute output into candidate subnets
// using hierarchical-addressing and hop-distance conditions.
//
// The fundamental handicap — and the paper's point (§2: "unlike the approach
// presented in [7], tracenet discovers subnet topologies as part of the
// online data collection process") — is that traceroute output contains only
// one address per router per path, so most subnet members are simply absent
// from the input and the inferred subnets come out fragmented or missed.
package subnetinfer

import (
	"sort"

	"tracenet/internal/ipv4"
)

// Observation is one address harvested from traceroute output, with the hop
// distance at which it responded.
type Observation struct {
	Addr ipv4.Addr
	// Dist is the hop distance from the vantage point (the TTL of the probe
	// that solicited the response).
	Dist int
}

// Subnet is one inferred subnet.
type Subnet struct {
	Prefix ipv4.Prefix
	Addrs  []ipv4.Addr
}

// Options tune the inference conditions.
type Options struct {
	// MaxPrefix bounds how large an inferred subnet may grow (smallest
	// prefix length considered). Default 24.
	MaxPrefix int
	// MinCompleteness is the utilized fraction of a candidate prefix
	// required to accept it, mirroring [7]'s completeness condition.
	// Default 0.5.
	MinCompleteness float64
}

func (o Options) withDefaults() Options {
	if o.MaxPrefix == 0 {
		o.MaxPrefix = 24
	}
	if o.MinCompleteness == 0 {
		o.MinCompleteness = 0.5
	}
	return o
}

// Infer groups the observations into subnets. For each address it grows the
// candidate prefix from /31 upward while three conditions keep holding,
// mirroring [7]'s formulation:
//
//   - hierarchical addressing: all group members share the prefix, and for
//     prefixes shorter than /31 no member is a network/broadcast address;
//   - distance condition: member hop distances differ by at most one (the
//     paper's unit subnet diameter);
//   - completeness: the group utilizes at least MinCompleteness of the
//     candidate prefix.
//
// Each address joins exactly one inferred subnet (the largest accepted
// candidate); addresses whose /31 candidate already fails stay out of the
// result, like [7]'s unassigned leftovers.
func Infer(obs []Observation, opts Options) []Subnet {
	opts = opts.withDefaults()
	byAddr := map[ipv4.Addr]int{}
	for _, o := range obs {
		byAddr[o.Addr] = o.Dist
	}
	addrs := make([]ipv4.Addr, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	assigned := map[ipv4.Addr]bool{}
	var out []Subnet
	for _, a := range addrs {
		if assigned[a] {
			continue
		}
		best := bestPrefix(a, byAddr, opts)
		if best.Bits() > 31 {
			continue // nothing to pair with
		}
		s := Subnet{Prefix: best}
		best.Addrs(func(m ipv4.Addr) bool {
			if _, ok := byAddr[m]; ok && !assigned[m] {
				s.Addrs = append(s.Addrs, m)
				assigned[m] = true
			}
			return true
		})
		if len(s.Addrs) >= 2 {
			out = append(out, s)
		} else {
			// A degenerate group (the candidates were assigned elsewhere).
			for _, m := range s.Addrs {
				delete(assigned, m)
			}
		}
	}
	return out
}

// bestPrefix evaluates every candidate level around a and returns the
// largest acceptable prefix (/32 when none is). Levels are independent: a
// /31 that fails for lack of a mate does not preclude the /30 or /29 whose
// other members make the conditions hold — e.g. the two usable hosts of a
// /30 have no /31 mates but form a valid /30.
func bestPrefix(a ipv4.Addr, byAddr map[ipv4.Addr]int, opts Options) ipv4.Prefix {
	accepted := ipv4.NewPrefix(a, 32)
	for m := 31; m >= opts.MaxPrefix; m-- {
		p := ipv4.NewPrefix(a, m)
		if acceptable(p, byAddr, opts) {
			accepted = p
		}
	}
	return accepted
}

func acceptable(p ipv4.Prefix, byAddr map[ipv4.Addr]int, opts Options) bool {
	count := 0
	minD, maxD := 1<<30, -1
	ok := true
	p.Addrs(func(m ipv4.Addr) bool {
		d, present := byAddr[m]
		if !present {
			return true
		}
		if p.Bits() < 31 && p.IsBoundary(m) {
			ok = false
			return false
		}
		count++
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		return true
	})
	if !ok || count < 2 {
		return false
	}
	if maxD-minD > 1 {
		return false // unit subnet diameter violated
	}
	return float64(count) >= opts.MinCompleteness*float64(p.HostCount())
}
