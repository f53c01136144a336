// Package core implements tracenet, the paper's contribution: an end-to-end
// topology collector that, at every hop of a path trace, grows the complete
// subnet accommodating the responding interface.
//
// A session alternates between two modes (paper §3.3):
//
//   - trace collection: like traceroute, an indirect probe at TTL d obtains
//     one interface address v of the router at hop d;
//   - subnet exploration: before moving to hop d+1, the subnet containing v
//     is located (subnet positioning, Algorithm 2) and grown from a /31
//     around the pivot interface to its largest authentic prefix
//     (Algorithm 1), guarded by heuristics H1–H9 (§3.5).
//
// The result is a sequence of subnets — with membership, observed prefix
// length, contra-pivot and ingress annotations — instead of a bare list of
// addresses.
package core

import (
	"fmt"
	"sort"
	"strings"

	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
)

// StopReason records which rule terminated subnet growth, for debugging and
// the ablation benchmarks.
type StopReason string

const (
	StopNone      StopReason = ""          // still growing (internal)
	StopH2        StopReason = "H2"        // upper-bound subnet contiguity
	StopH3        StopReason = "H3"        // second contra-pivot
	StopH4        StopReason = "H4"        // lower-bound subnet contiguity
	StopH6        StopReason = "H6"        // fixed entry points
	StopH7        StopReason = "H7"        // upper-bound router contiguity (far fringe)
	StopH8        StopReason = "H8"        // lower-bound router contiguity (close fringe)
	StopHalfFill  StopReason = "half-fill" // Algorithm 1 lines 19–21
	StopMinPrefix StopReason = "min-prefix"
)

// StopReasons is the canonical presentation order of the stop reasons:
// heuristics in paper order, then the growth-limit rules. Every consumer
// that renders a stop-reason histogram iterates this list (never the map),
// so reports and telemetry stay deterministically ordered.
var StopReasons = []StopReason{
	StopH2, StopH3, StopH4, StopH6, StopH7, StopH8, StopHalfFill, StopMinPrefix,
}

// StopCount pairs a stop reason with its occurrence count.
type StopCount struct {
	Reason StopReason
	Count  int
}

// OrderedStopCounts flattens a stop-reason histogram into deterministic
// order: the canonical StopReasons first, then any reasons outside the
// canonical set (e.g. from a checkpoint written by a newer collector) sorted
// by name. Zero-count and still-growing (StopNone) entries are dropped.
func OrderedStopCounts(stats map[StopReason]int) []StopCount {
	var out []StopCount
	known := map[StopReason]bool{StopNone: true}
	for _, r := range StopReasons {
		known[r] = true
		if c := stats[r]; c > 0 {
			out = append(out, StopCount{r, c})
		}
	}
	var rest []StopReason
	for r := range stats {
		if !known[r] && stats[r] > 0 {
			rest = append(rest, r)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, r := range rest {
		out = append(out, StopCount{r, stats[r]})
	}
	return out
}

// Subnet is one collected ("observed") subnet.
type Subnet struct {
	// Prefix is the observed subnet prefix after growth and H9 reduction.
	Prefix ipv4.Prefix
	// Addrs are the member interface addresses, ascending; they include the
	// pivot and, when present, the contra-pivot.
	Addrs []ipv4.Addr
	// Pivot is the interface the subnet was grown around; PivotDist its hop
	// distance from the vantage point.
	Pivot     ipv4.Addr
	PivotDist int
	// ContraPivot is the member on the ingress router (hop distance
	// PivotDist-1); Zero if none was found.
	ContraPivot ipv4.Addr
	// Ingress is the ingress interface found by subnet positioning (Zero if
	// anonymous); TraceEntry is the previous trace-collection hop u.
	Ingress    ipv4.Addr
	TraceEntry ipv4.Addr
	// OnPath reports whether the subnet lies on the trace path (§3.4).
	OnPath bool
	// Stop records which rule terminated growth.
	Stop StopReason
	// Probes is the number of packets spent positioning and exploring this
	// subnet (the §3.6 overhead accounting).
	Probes uint64
	// Confidence is the answered fraction of the logical probes spent
	// positioning and exploring this subnet, in (0,1]. It degrades as the
	// network fails to answer — whether from unassigned space, rate
	// limiting, or injected faults — and is 1 for a fully answered growth.
	Confidence float64
	// Degraded marks a subnet collected under definite fault evidence
	// (corrupted replies, circuit-breaker load shedding, or recovered
	// transport errors): its membership is a lower bound, not a clean
	// observation, and evaluation should weigh it accordingly.
	Degraded bool
}

// Contains reports whether addr is a member of the collected subnet.
func (s *Subnet) Contains(addr ipv4.Addr) bool {
	for _, a := range s.Addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// PointToPoint reports whether the observed subnet is a /31 or /30 link.
func (s *Subnet) PointToPoint() bool { return s.Prefix.Bits() >= 30 }

// String renders the subnet with its annotations.
func (s *Subnet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v at hop %d:", s.Prefix, s.PivotDist)
	for _, a := range s.Addrs {
		switch a {
		case s.Pivot:
			fmt.Fprintf(&b, " %v(pivot)", a)
		case s.ContraPivot:
			fmt.Fprintf(&b, " %v(contra)", a)
		default:
			fmt.Fprintf(&b, " %v", a)
		}
	}
	if s.Degraded {
		fmt.Fprintf(&b, " [degraded conf=%.2f]", s.Confidence)
	}
	return b.String()
}

// Hop is one hop of a tracenet session.
type Hop struct {
	// TTL is the hop index (probe TTL in trace-collection mode).
	TTL int
	// Addr is the interface obtained in trace-collection mode; Zero for an
	// anonymous hop.
	Addr ipv4.Addr
	// Kind is the raw trace-collection probe outcome.
	Kind probe.Kind
	// Subnet is the subnet grown at this hop; nil when the hop was anonymous
	// or could not be positioned.
	Subnet *Subnet
	// Revisited is set when Addr already belonged to a subnet collected at an
	// earlier hop, which is then reused instead of re-explored.
	Revisited bool
	// Shared is set when the hop's exploration was served by the campaign's
	// shared subnet cache instead of this session's own probing. Which hops
	// are shared depends on worker scheduling, so renderers that promise
	// byte-stable output must ignore this flag (the subnet itself is
	// identical either way).
	Shared bool
	// Degraded is set when this hop's collection observed definite fault
	// evidence (corrupt replies, breaker skips, or a recovered transport
	// error); the hop and its subnet are degraded-but-usable, not clean.
	Degraded bool
}

// Anonymous reports whether the hop did not respond in trace collection.
func (h Hop) Anonymous() bool { return h.Addr.IsZero() }

// Result is a completed tracenet session.
type Result struct {
	Dst     ipv4.Addr
	Hops    []Hop
	Reached bool
	// Subnets are the distinct subnets collected, in discovery order.
	Subnets []*Subnet
	// Probe accounting per phase (§3.6). DefenseProbes counts the
	// cross-validation re-probes spent by Config.Defend (0 when off).
	TraceProbes    uint64
	PositionProbes uint64
	ExploreProbes  uint64
	DefenseProbes  uint64
	// Recovered counts transport errors the session absorbed by treating
	// the probe as silent instead of aborting (graceful degradation).
	Recovered uint64
	// BreakerLimited marks a trace that ended without reaching dst while the
	// circuit breaker was skipping probes: the silence that terminated it was
	// locally manufactured, not observed, so the outcome is provisional. A
	// campaign does not journal such a target in its checkpoint, so a resume
	// (with a fresh breaker) retries it instead of silently skipping.
	BreakerLimited bool
	// Quarantined lists, ascending, the addresses the session had
	// quarantined (Config.Defend) when this trace ended; nil when none.
	Quarantined []ipv4.Addr
}

// DegradedSubnets returns the subnets of this result flagged as degraded.
func (r *Result) DegradedSubnets() []*Subnet {
	var out []*Subnet
	for _, s := range r.Subnets {
		if s.Degraded {
			out = append(out, s)
		}
	}
	return out
}

// TotalProbes returns the packets spent across all phases.
func (r *Result) TotalProbes() uint64 {
	return r.TraceProbes + r.PositionProbes + r.ExploreProbes + r.DefenseProbes
}

// AddrCount returns the number of distinct interface addresses discovered,
// including trace-collection addresses not placed into any subnet.
func (r *Result) AddrCount() int {
	set := map[ipv4.Addr]bool{}
	for _, h := range r.Hops {
		if !h.Anonymous() {
			set[h.Addr] = true
		}
	}
	for _, s := range r.Subnets {
		for _, a := range s.Addrs {
			set[a] = true
		}
	}
	return len(set)
}

// String renders the session, one hop per line with its subnet. The header
// carries no probe total: in a campaign that total depends on which worker
// grew a shared subnet.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tracenet to %v (%d hops, reached=%v)\n", r.Dst, len(r.Hops), r.Reached)
	for _, h := range r.Hops {
		if h.Anonymous() {
			fmt.Fprintf(&b, "%3d  *\n", h.TTL)
			continue
		}
		fmt.Fprintf(&b, "%3d  %v", h.TTL, h.Addr)
		if h.Subnet != nil {
			mark := ""
			if h.Revisited {
				mark = " (revisited)"
			}
			fmt.Fprintf(&b, "  subnet %v [%d addrs]%s", h.Subnet.Prefix, len(h.Subnet.Addrs), mark)
		}
		if h.Degraded {
			b.WriteString("  (degraded)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortAddrs sorts a member list ascending.
func sortAddrs(addrs []ipv4.Addr) {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
}
