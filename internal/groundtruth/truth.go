// Package groundtruth scores collected subnet-level topologies against the
// true topology of the simulated network — the machine-checked counterpart of
// the paper's §4 evaluation, where tracenet's inferences are compared against
// Internet2/GEANT router configurations for completeness and correctness.
//
// The simulator knows every link's real prefix, member interfaces, and
// p2p/multi-access kind; this package extracts that truth from a
// netsim.Topology and scores any collected topology map against it:
// per-subnet verdicts (exact, prefix-off-by-k as superset/subset, phantom,
// missed), aggregate precision/recall on subnets and on member addresses, and
// a prefix-length error histogram. All artifacts render deterministically
// (text and JSON), so same-seed runs are byte-identical and accuracy floors
// can gate regressions in CI.
package groundtruth

import (
	"slices"

	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
)

// TrueSubnet is one subnet of the ground-truth topology.
type TrueSubnet struct {
	// Prefix is the subnet's real CIDR prefix.
	Prefix ipv4.Prefix `json:"prefix"`
	// Addrs are the assigned member interface addresses, ascending.
	Addrs []ipv4.Addr `json:"addrs"`
	// PointToPoint marks /31 and /30 links (the paper's p2p/multi-access
	// distinction).
	PointToPoint bool `json:"p2p,omitempty"`
	// HostAttached marks access subnets with a host (vantage or end system)
	// on them.
	HostAttached bool `json:"host_attached,omitempty"`
	// Unresponsive marks subnets firewalled in the simulation — subnets no
	// collector can observe, which recall accounting may want to discount.
	Unresponsive bool `json:"unresponsive,omitempty"`
	// PartiallyUnresponsive marks subnets with a mix of responsive and
	// silent members, which any collector sees smaller than they are (the
	// paper's "undes\unrs" attribution). FromTopology leaves it unset.
	PartiallyUnresponsive bool `json:"partially_unresponsive,omitempty"`
}

// Options tunes truth extraction.
type Options struct {
	// ExcludeHostSubnets drops host access subnets from the scoring universe,
	// leaving only the router-to-router core (the paper's Tables 1–2 score
	// against backbone subnets). Off by default: a collector that traces
	// toward hosts legitimately observes their access subnets, and scoring
	// them as phantoms would be wrong.
	ExcludeHostSubnets bool
}

// Truth is the extracted scoring universe: the true subnets, sorted by
// prefix, plus the union of their member addresses. The true prefixes are
// pairwise disjoint, as a built netsim topology's are, so the true subnets a
// prefix overlaps are one run of Subnets (ipv4.OverlapRun).
type Truth struct {
	Subnets []TrueSubnet

	addrs map[ipv4.Addr]bool
}

// FromTopology extracts the ground-truth subnet-level topology from a built
// netsim topology. The result is deterministic: subnets are sorted by base
// address then prefix length, members ascending.
func FromTopology(t *netsim.Topology, opt Options) *Truth {
	tr := &Truth{addrs: make(map[ipv4.Addr]bool)}
	for _, s := range t.Subnets {
		if opt.ExcludeHostSubnets && s.HostAttached() {
			continue
		}
		tr.Subnets = append(tr.Subnets, TrueSubnet{
			Prefix:       s.Prefix,
			Addrs:        s.MemberAddrs(),
			PointToPoint: s.IsPointToPoint(),
			HostAttached: s.HostAttached(),
			Unresponsive: s.Unresponsive,
		})
	}
	sortTrueSubnets(tr.Subnets)
	tr.reindex()
	return tr
}

// FromSubnets builds a Truth directly from explicit subnets — for tests and
// for scoring against hand-written ground truth (e.g. a parsed router
// config). The prefixes must be pairwise disjoint.
func FromSubnets(subs []TrueSubnet) *Truth {
	tr := &Truth{
		Subnets: make([]TrueSubnet, len(subs)),
		addrs:   make(map[ipv4.Addr]bool),
	}
	copy(tr.Subnets, subs)
	for i := range tr.Subnets {
		addrs := make([]ipv4.Addr, len(tr.Subnets[i].Addrs))
		copy(addrs, tr.Subnets[i].Addrs)
		slices.Sort(addrs)
		tr.Subnets[i].Addrs = addrs
	}
	sortTrueSubnets(tr.Subnets)
	tr.reindex()
	return tr
}

func (t *Truth) reindex() {
	for i, s := range t.Subnets {
		for _, a := range s.Addrs {
			t.addrs[a] = true
		}
		if i > 0 {
			invariant.Assertf(!t.Subnets[i-1].Prefix.Overlaps(s.Prefix),
				"groundtruth: true subnets %v and %v overlap", t.Subnets[i-1].Prefix, s.Prefix)
		}
	}
}

// AddrCount returns the number of distinct member addresses in the truth.
func (t *Truth) AddrCount() int { return len(t.addrs) }

// HasAddr reports whether addr is a member interface of some true subnet.
func (t *Truth) HasAddr(addr ipv4.Addr) bool { return t.addrs[addr] }

// ByPrefix returns the true subnet with exactly the given prefix, or nil.
func (t *Truth) ByPrefix(p ipv4.Prefix) *TrueSubnet {
	if lo, hi := t.overlapping(p); lo < hi && t.Subnets[lo].Prefix == p {
		return &t.Subnets[lo]
	}
	return nil
}

// overlapping returns the index range [lo, hi) of the true subnets whose
// address range intersects p. A true prefix overlaps only itself, so its run
// starts at its own index.
func (t *Truth) overlapping(p ipv4.Prefix) (lo, hi int) {
	return ipv4.OverlapRun(t.Subnets, p, func(s TrueSubnet) ipv4.Prefix { return s.Prefix })
}

func sortTrueSubnets(subs []TrueSubnet) {
	slices.SortFunc(subs, func(a, b TrueSubnet) int { return a.Prefix.Compare(b.Prefix) })
}
