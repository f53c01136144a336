// Package alias implements Ally-style IP alias resolution (Spring et al.,
// Rocketfuel [21]; Gunes & Sarac [10]) — the post-processing step that turns
// interface-level data into router-level maps by grouping the addresses that
// belong to one router.
//
// The technique: many routers draw the IP identifier of every packet they
// originate from a single shared counter. Probing two candidate addresses in
// quick succession and observing mutually interleaved, close identifiers
// proves the replies came from one box. tracenet's subnet data slashes the
// O(n²) candidate space: two addresses on the same collected subnet cannot
// be aliases (a router has one interface per subnet), which is one of the
// paper's arguments for collecting subnets in the first place.
package alias

import (
	"fmt"

	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// Resolver runs pairwise Ally tests through an uncached prober.
type Resolver struct {
	pr *probe.Prober
	// Window is the maximum identifier span accepted as "one counter"
	// across a probe pair sequence. Default 64.
	Window uint16
	// Rounds is how many interleaved probe rounds a pair test uses.
	// Default 3.
	Rounds int

	tel    *telemetry.Telemetry
	cTests *telemetry.Counter
	cHits  *telemetry.Counter
}

// NewResolver creates a resolver probing through tr from src. The prober is
// created without a response cache: alias tests need fresh identifiers on
// every probe.
func NewResolver(tr probe.Transport, src ipv4.Addr) *Resolver {
	r := &Resolver{
		pr:     probe.New(tr, src, probe.Options{}),
		Window: 64,
		Rounds: 3,
	}
	r.SetTelemetry(nil)
	return r
}

// SetTelemetry attaches the run's telemetry layer to the resolver and its
// prober, so alias-resolution probing shares the session's metric registry,
// trace, and flight recorder.
func (r *Resolver) SetTelemetry(tel *telemetry.Telemetry) {
	r.tel = tel
	r.pr.SetTelemetry(tel)
	r.cTests = tel.Counter("tracenet_alias_tests_total")
	r.cHits = tel.Counter("tracenet_alias_aliases_total")
}

// Probes returns the number of packets spent so far.
func (r *Resolver) Probes() uint64 { return r.pr.Stats().Sent }

// SameRouter runs one Ally test: interleaved direct probes to a and b whose
// reply identifiers must form a single monotonically increasing sequence
// within the window. Unresponsive addresses and random-ID routers fail the
// test (reported as not aliases — the technique's known false-negative
// class).
func (r *Resolver) SameRouter(a, b ipv4.Addr) (bool, error) {
	if a == b {
		return true, nil
	}
	r.cTests.Inc()
	span := r.tel.StartSpan("alias", "a", a.String(), "b", b.String())
	scope := r.pr.Scope()
	same, err := r.sameRouter(a, b)
	scope.CountInto(span)
	if same {
		r.cHits.Inc()
		span.Count("aliases", 1)
	}
	span.End()
	return same, err
}

func (r *Resolver) sameRouter(a, b ipv4.Addr) (bool, error) {
	var ids []uint16
	for i := 0; i < r.Rounds; i++ {
		for _, target := range []ipv4.Addr{a, b} {
			res, err := r.pr.Direct(target)
			if err != nil {
				return false, fmt.Errorf("alias: probing %v: %w", target, err)
			}
			if !res.Alive() {
				return false, nil
			}
			ids = append(ids, res.IPID)
		}
	}
	return interleaved(ids, r.Window), nil
}

// interleaved reports whether ids form one strictly increasing sequence
// (with 16-bit wraparound) whose total span stays within window.
func interleaved(ids []uint16, window uint16) bool {
	if len(ids) < 2 {
		return false
	}
	var span uint16
	for i := 1; i < len(ids); i++ {
		delta := ids[i] - ids[i-1] // wraparound-correct unsigned delta
		if delta == 0 || delta > window {
			return false
		}
		span += delta
		if span > window {
			return false
		}
	}
	return true
}

// Constraint prunes a candidate pair before probing. Return false to skip
// the pair (known non-aliases).
type Constraint func(a, b ipv4.Addr) bool

// SameSubnetConstraint builds a Constraint from collected subnets: two
// member addresses of one subnet cannot belong to the same router.
func SameSubnetConstraint(subnets [][]ipv4.Addr) Constraint {
	subnetOf := map[ipv4.Addr]int{}
	for i, members := range subnets {
		for _, a := range members {
			subnetOf[a] = i
		}
	}
	return func(a, b ipv4.Addr) bool {
		sa, oka := subnetOf[a]
		sb, okb := subnetOf[b]
		return !(oka && okb && sa == sb)
	}
}

// Resolve groups addrs into alias sets (routers) by pairwise testing with
// union-find, skipping pairs rejected by any constraint. The result is a
// partition of addrs; singletons are routers with one known interface.
func (r *Resolver) Resolve(addrs []ipv4.Addr, constraints ...Constraint) ([][]ipv4.Addr, error) {
	parent := make([]int, len(addrs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}

	allowed := func(a, b ipv4.Addr) bool {
		for _, c := range constraints {
			if !c(a, b) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if find(i) == find(j) {
				continue // already grouped transitively
			}
			if !allowed(addrs[i], addrs[j]) {
				continue
			}
			same, err := r.SameRouter(addrs[i], addrs[j])
			if err != nil {
				return nil, err
			}
			if same {
				parent[find(j)] = find(i)
			}
		}
	}

	groups := map[int][]ipv4.Addr{}
	for i, a := range addrs {
		root := find(i)
		groups[root] = append(groups[root], a)
	}
	out := make([][]ipv4.Addr, 0, len(groups))
	for i := range addrs {
		if find(i) == i {
			out = append(out, groups[i])
		}
	}
	return out, nil
}
