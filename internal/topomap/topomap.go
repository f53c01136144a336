// Package topomap assembles tracenet session results into a subnet-level
// topology map — the artifact the paper positions tracenet as the collector
// for (§1: subnet-level maps "enrich the router level maps with subnet level
// connectivity info"). The map answers the questions that motivated
// Figure 2: which addresses share a LAN, and whether two paths are really
// link-disjoint.
//
// Sessions from multiple vantage points or campaigns can be merged into one
// map; overlapping observations of the same subnet are reconciled by keeping
// the larger prefix's membership union.
package topomap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tracenet/internal/core"
	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
)

// Map is an accumulating subnet-level topology map.
// The zero value is not usable; call New.
type Map struct {
	// entries are the subnets in prefix order (ipv4.Prefix.Compare). They
	// are pairwise disjoint, because addSubnet folds every entry a new
	// observation overlaps into one, and each entry's members lie inside its
	// prefix. So the entries overlapping a prefix are one run
	// (ipv4.OverlapRun), and an address's subnet is the entry covering it.
	entries []*Entry
	// hops records every trace adjacency observed: an (earlier hop, later
	// hop) pair of responding addresses on some path.
	hops map[[2]ipv4.Addr]int
	// anon records anonymous hops by their responding neighbours, the
	// standard anonymous-router resolution heuristic ([8]: two '*' nodes
	// with the same known neighbours are one router).
	anon map[[2]ipv4.Addr]int
}

// Entry is one subnet of the map with its accumulated observations.
type Entry struct {
	Prefix ipv4.Prefix
	// Addrs is the union of member addresses over all observations.
	Addrs []ipv4.Addr
	// Observations counts how many sessions contributed.
	Observations int
	// OnPath reports whether any observation found the subnet on its trace
	// path.
	OnPath bool
	// Conflicts records prefix-length disagreements among the observations
	// merged into this entry (e.g. "observed as 10.0.3.0/31 and 10.0.3.0/29"),
	// sorted and deduplicated. A conflicted entry keeps the largest observed
	// prefix; the notes preserve what the losing observations claimed.
	Conflicts []string
	// Confidence is the minimum confidence over the merged observations
	// (core.Subnet.Confidence), capped at conflictedConfidence once any
	// prefix-length conflict is recorded. Observations that do not track
	// confidence (zero value) count as 1. Minimum, OR, and cap are all
	// order-independent, so merged maps stay schedule-deterministic.
	Confidence float64
	// Degraded reports whether any merged observation was degraded, or the
	// observations disagreed about the subnet's size — the conflict-aware
	// demotion of DESIGN.md §11: an adversarially-tainted entry is reported
	// degraded rather than asserted.
	Degraded bool
}

// conflictedConfidence caps the confidence of an entry whose observations
// disagree about the subnet's prefix length: at most one of them can be
// right, so the entry cannot be asserted at more than coin-flip confidence.
const conflictedConfidence = 0.5

// addConflict records a prefix-length disagreement between two observations
// of the same address space, keeping the note list sorted and deduplicated.
func (e *Entry) addConflict(a, b ipv4.Prefix) {
	if a == b {
		return
	}
	e.Degraded = true
	if e.Confidence > conflictedConfidence {
		e.Confidence = conflictedConfidence
	}
	// Canonical operand order keeps the note stable regardless of which
	// observation arrived first.
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	e.addNote(fmt.Sprintf("observed as %v and %v", a, b))
}

// addNote appends a conflict note, keeping the list sorted and deduplicated.
func (e *Entry) addNote(note string) {
	for _, have := range e.Conflicts {
		if have == note {
			return
		}
	}
	e.Conflicts = append(e.Conflicts, note)
	sort.Strings(e.Conflicts)
}

// New returns an empty map.
func New() *Map {
	return &Map{
		hops: make(map[[2]ipv4.Addr]int),
		anon: make(map[[2]ipv4.Addr]int),
	}
}

// AddSubnets merges collected subnets into the map without trace-path
// context (no adjacency or anonymous-router bookkeeping) — useful when
// merging observations from several vantage points or campaigns.
func (m *Map) AddSubnets(subnets []*core.Subnet) {
	for _, s := range subnets {
		if s.Prefix.Bits() >= 32 {
			continue
		}
		m.addSubnet(s)
	}
}

// AddSession merges one tracenet result into the map.
func (m *Map) AddSession(res *core.Result) {
	for _, s := range res.Subnets {
		if s.Prefix.Bits() >= 32 {
			continue
		}
		m.addSubnet(s)
	}
	var prev ipv4.Addr
	pendingAnon := false
	var anonPrev ipv4.Addr
	for _, h := range res.Hops {
		if h.Anonymous() {
			if !prev.IsZero() {
				pendingAnon, anonPrev = true, prev
			}
			prev = ipv4.Zero
			continue
		}
		if pendingAnon {
			// One anonymous hop between two responders: record the
			// placeholder router by its neighbour pair.
			m.anon[[2]ipv4.Addr{anonPrev, h.Addr}]++
			pendingAnon = false
		}
		if !prev.IsZero() {
			m.hops[[2]ipv4.Addr{prev, h.Addr}]++
		}
		prev = h.Addr
	}
}

// entryPrefix reads an entry's prefix for ipv4.OverlapRun.
func entryPrefix(e *Entry) ipv4.Prefix { return e.Prefix }

func (m *Map) addSubnet(s *core.Subnet) {
	// Reconcile overlapping prefixes: the same physical subnet may have been
	// observed at different sizes from different campaigns; one entry keyed
	// by the largest (shortest) prefix holds the union. A large observation
	// can cover several previously separate entries, so every overlapping
	// entry is absorbed into the first, in prefix order — merging just one
	// would leave duplicate rows for the same address space.
	lo, hi := ipv4.OverlapRun(m.entries, s.Prefix, entryPrefix)
	if lo == hi {
		e := &Entry{Prefix: s.Prefix, Confidence: 1}
		m.entries = slices.Insert(m.entries, lo, e)
		e.observe(s)
		return
	}

	e := m.entries[lo]
	for _, o := range m.entries[lo+1 : hi] {
		// Absorb the later entry: its members, observation count, and any
		// conflict notes it already carried move onto the survivor, and the
		// size disagreement between the two is itself recorded.
		e.addConflict(e.Prefix, o.Prefix)
		for _, c := range o.Conflicts {
			e.addNote(c)
		}
		e.Addrs = append(e.Addrs, o.Addrs...)
		e.Observations += o.Observations
		e.OnPath = e.OnPath || o.OnPath
		e.Degraded = e.Degraded || o.Degraded
		if o.Confidence < e.Confidence {
			e.Confidence = o.Confidence
		}
	}
	m.entries = slices.Delete(m.entries, lo+1, hi)
	if s.Prefix != e.Prefix {
		e.addConflict(e.Prefix, s.Prefix)
	}
	if s.Prefix.Bits() < e.Prefix.Bits() {
		// The new observation is the largest: re-key the survivor. It
		// covers exactly the run it replaces, so the order holds.
		e.Prefix = s.Prefix
	}
	e.observe(s)
}

// observe unions one observation's members into e and bumps its
// accounting.
func (e *Entry) observe(s *core.Subnet) {
	e.Addrs = append(e.Addrs, s.Addrs...)
	slices.Sort(e.Addrs)
	e.Addrs = slices.Compact(e.Addrs)
	// Collected subnets hold only members inside their prefix (the
	// checkpoint asserts it: core.SnapshotSubnet), so a merged entry does
	// too; SubnetOf and AddrCount rely on it.
	invariant.Assertf(len(e.Addrs) == 0 || e.Prefix.Contains(e.Addrs[0]) && e.Prefix.Contains(e.Addrs[len(e.Addrs)-1]),
		"topomap: entry %v holds a member outside it: %v", e.Prefix, e.Addrs)
	e.Observations++
	e.OnPath = e.OnPath || s.OnPath
	e.Degraded = e.Degraded || s.Degraded
	// Subnets built without confidence tracking (handcrafted literals, older
	// checkpoints) carry the zero value; they count as fully confident.
	if conf := s.Confidence; conf > 0 && conf < e.Confidence {
		e.Confidence = conf
	}
}

// Subnets returns the map's entries ordered by prefix base address.
func (m *Map) Subnets() []*Entry { return append(make([]*Entry, 0, len(m.entries)), m.entries...) }

// SubnetOf returns the map's subnet whose prefix covers addr, or nil. Members
// lie inside their entry's prefix, so an observed member's entry is the one
// returned.
func (m *Map) SubnetOf(addr ipv4.Addr) *Entry {
	if lo, hi := ipv4.OverlapRun(m.entries, ipv4.NewPrefix(addr, 32), entryPrefix); lo < hi {
		return m.entries[lo]
	}
	return nil
}

// SameLAN reports whether two addresses were observed on the same subnet —
// the "being on the same LAN" relationship of the paper's abstract.
func (m *Map) SameLAN(a, b ipv4.Addr) bool {
	ea, eb := m.SubnetOf(a), m.SubnetOf(b)
	return ea != nil && ea == eb
}

// AddrCount returns the number of distinct member addresses in the map.
// Entries are disjoint and hold distinct members, so the count is their sum.
func (m *Map) AddrCount() int {
	n := 0
	for _, e := range m.entries {
		n += len(e.Addrs)
	}
	return n
}

// LinkDisjoint reports whether two paths (given as their responding hop
// addresses) share no subnet: the overlay-network question of Figure 2.
// Paths that look disjoint address-wise may still share a LAN; the subnet
// map catches that. The second return value lists the shared subnets.
func (m *Map) LinkDisjoint(pathA, pathB []ipv4.Addr) (bool, []*Entry) {
	inA := map[*Entry]bool{}
	for _, a := range pathA {
		if e := m.SubnetOf(a); e != nil {
			inA[e] = true
		}
	}
	var shared []*Entry
	seen := map[*Entry]bool{}
	for _, b := range pathB {
		if e := m.SubnetOf(b); e != nil && inA[e] && !seen[e] {
			shared = append(shared, e)
			seen[e] = true
		}
	}
	return len(shared) == 0, shared
}

// AdjacentSubnets reports subnet pairs observed consecutively on some trace
// path: the subnet-level links of the map.
func (m *Map) AdjacentSubnets() [][2]*Entry {
	seen := map[[2]ipv4.Prefix]bool{}
	var out [][2]*Entry
	for pair := range m.hops {
		ea, eb := m.SubnetOf(pair[0]), m.SubnetOf(pair[1])
		if ea == nil || eb == nil || ea == eb {
			continue
		}
		key := [2]ipv4.Prefix{ea.Prefix, eb.Prefix}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, [2]*Entry{ea, eb})
	}
	slices.SortFunc(out, func(a, b [2]*Entry) int {
		return cmp.Or(a[0].Prefix.Compare(b[0].Prefix), a[1].Prefix.Compare(b[1].Prefix))
	})
	return out
}

// AnonymousRouter is a placeholder for a router that never answered
// indirect probes, identified by its responding neighbours. Observations
// with the same neighbour pair are merged into one placeholder — the
// neighbour-matching heuristic of anonymous router resolution [8].
type AnonymousRouter struct {
	Prev, Next   ipv4.Addr
	Observations int
}

// AnonymousRouters returns the resolved placeholders, ordered by neighbours.
func (m *Map) AnonymousRouters() []AnonymousRouter {
	out := make([]AnonymousRouter, 0, len(m.anon))
	for pair, n := range m.anon {
		out = append(out, AnonymousRouter{Prev: pair[0], Next: pair[1], Observations: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prev != out[j].Prev {
			return out[i].Prev < out[j].Prev
		}
		return out[i].Next < out[j].Next
	})
	return out
}

// String renders the map, one subnet per line.
func (m *Map) String() string {
	var b strings.Builder
	entries := m.Subnets()
	fmt.Fprintf(&b, "subnet map: %d subnets, %d addresses\n", len(entries), m.AddrCount())
	for _, e := range entries {
		kind := "lan"
		if e.Prefix.Bits() >= 30 {
			kind = "p2p"
		}
		fmt.Fprintf(&b, "  %-18v %s x%d %v", e.Prefix, kind, e.Observations, e.Addrs)
		if e.Degraded {
			fmt.Fprintf(&b, " [degraded conf=%.2f]", e.Confidence)
		}
		b.WriteByte('\n')
		for _, c := range e.Conflicts {
			fmt.Fprintf(&b, "    conflict: %s\n", c)
		}
	}
	return b.String()
}
