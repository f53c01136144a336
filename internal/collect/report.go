package collect

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"tracenet/internal/core"
	"tracenet/internal/probe"
	"tracenet/internal/topomap"
)

// Stats is the campaign's aggregate accounting. Every field is
// schedule-independent on a deterministic substrate: wire probes, memo and
// cache counters total over work that happens exactly once per target, per
// distinct hop context or per distinct probe, however it was interleaved.
type Stats struct {
	Targets int
	Done    int
	Breaker int
	Resumed int
	Budget  int
	Skipped int
	Failed  int

	// CacheHits / CacheMisses / ProbesSaved come from the shared subnet
	// cache (zero when it is disabled): misses are distinct contexts grown,
	// hits are explorations served without probing, ProbesSaved is the wire
	// cost those hits avoided re-spending.
	CacheHits   uint64
	CacheMisses uint64
	ProbesSaved uint64
	// WireProbes is the campaign's total packets on the wire. MemoHits
	// counts the logical probes the campaign's probe memo answered instead
	// (logical lookups less the distinct probes sent; zero when sharing is
	// disabled).
	WireProbes uint64
	MemoHits   uint64
}

// Report is a completed campaign: per-target rows in input order, the merged
// subnet-level topology, and the aggregate stats. Its rendering is
// byte-stable: two campaigns over the same targets on the same substrate
// render identically regardless of worker count, scheduling, or whether one
// of them was interrupted and resumed from its checkpoint.
type Report struct {
	// ID is the campaign identity from Config.ID ("" for anonymous runs).
	// It is carried, not rendered: WriteTo output stays identical whether or
	// not the campaign was identified.
	ID      string
	Targets []TargetResult
	// Map is the merged topology over every row's observations, resumed
	// rows included.
	Map   *topomap.Map
	Stats Stats

	// subnets is the deduplicated, deterministically ordered set of distinct
	// collected subnets, for checkpointing.
	subnets []*core.Subnet
	// digest and memo are what the checkpoint journals besides the rows:
	// Config.Digest, and the probe memo while some target is unfinished
	// (nil once every target is done, or without sharing).
	digest string
	memo   *probe.Memo
}

// merge builds the merged topology and the distinct-subnet set from the
// per-target results, in input order — the same fold whatever order workers
// finished in, and whether a row was traced or resumed.
func (r *Report) merge() {
	m := topomap.New()
	seen := make(map[*core.Subnet]bool)
	var subs []*core.Subnet
	for i := range r.Targets {
		res := r.Targets[i].Result
		if res == nil {
			continue
		}
		m.AddSession(res)
		for _, sub := range res.Subnets {
			if !seen[sub] {
				seen[sub] = true
				subs = append(subs, sub)
			}
		}
	}
	sortSubnets(subs)
	r.Map = m
	r.subnets = subs
}

// sortSubnets orders subnets by prefix base, prefix length, pivot, then
// pivot distance. Distinct hop contexts can grow identical subnets, so the
// sort is stable: ties keep their first appearance in the input-order fold,
// which the checkpoint's subnet indices depend on.
func sortSubnets(subs []*core.Subnet) {
	slices.SortStableFunc(subs, func(a, b *core.Subnet) int {
		return cmp.Or(a.Prefix.Compare(b.Prefix), cmp.Compare(a.Pivot, b.Pivot), cmp.Compare(a.PivotDist, b.PivotDist))
	})
}

// Subnets returns the campaign's distinct collected subnets in deterministic
// order (prefix, then pivot; see sortSubnets).
func (r *Report) Subnets() []*core.Subnet { return r.subnets }

// WriteTo renders what the campaign collected: the per-target rows, the
// merged map, subnet links and anonymous routers. A resumed row renders as
// the done row it journaled, and no run accounting (wire probes, cache
// counters: see Stats) is rendered, so the output is independent of
// scheduling and of resume; see Report for the byte-stability contract.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder

	fmt.Fprintf(&b, "campaign: %d targets (done %d, budget %d, skipped %d, failed %d",
		r.Stats.Targets, r.Stats.Done+r.Stats.Resumed, r.Stats.Budget, r.Stats.Skipped, r.Stats.Failed)
	if r.Stats.Breaker > 0 {
		fmt.Fprintf(&b, ", breaker %d", r.Stats.Breaker)
	}
	b.WriteString(")\n")
	for i := range r.Targets {
		t := &r.Targets[i]
		st := t.Status
		if st == StatusResumed {
			st = StatusDone
		}
		fmt.Fprintf(&b, "  %-15v %-8s", t.Dst, st)
		switch st {
		case StatusDone, StatusBudget, StatusBreaker:
			res := t.Result
			fmt.Fprintf(&b, " reached=%v hops=%d subnets=%d trace-probes=%d",
				res.Reached, len(res.Hops), len(res.Subnets), res.TraceProbes)
		}
		if t.Note != "" {
			fmt.Fprintf(&b, " (%s)", t.Note)
		}
		b.WriteByte('\n')
	}

	b.WriteByte('\n')
	b.WriteString("merged ")
	b.WriteString(r.Map.String())

	if links := r.Map.AdjacentSubnets(); len(links) > 0 {
		fmt.Fprintf(&b, "subnet links (%d):\n", len(links))
		for _, l := range links {
			fmt.Fprintf(&b, "  %v <-> %v\n", l[0].Prefix, l[1].Prefix)
		}
	}
	if anon := r.Map.AnonymousRouters(); len(anon) > 0 {
		fmt.Fprintf(&b, "anonymous routers (%d):\n", len(anon))
		for _, a := range anon {
			fmt.Fprintf(&b, "  * between %v and %v x%d\n", a.Prev, a.Next, a.Observations)
		}
	}

	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
