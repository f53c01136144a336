package collect

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tracenet/internal/core"
	"tracenet/internal/topomap"
)

// Stats is the campaign's aggregate accounting. Every field is
// schedule-independent on a deterministic substrate: wire probes and cache
// counters total over work that happens exactly once per target or per
// distinct hop context, however it was interleaved.
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
	// WireProbes is the campaign's total packets on the wire.
	WireProbes uint64
}

// Report is a completed campaign: per-target rows in input order, the merged
// subnet-level topology, and the aggregate stats. Its rendering is
// byte-stable: two campaigns over the same targets on the same substrate
// render identically regardless of worker count or scheduling.
type Report struct {
	// ID is the campaign identity from Config.ID ("" for anonymous runs).
	// It is carried, not rendered: WriteTo output stays identical whether or
	// not the campaign was identified.
	ID      string
	Targets []TargetResult
	// Map is the merged topology over every observation of the campaign
	// (including subnets restored from a resumed checkpoint).
	Map   *topomap.Map
	Stats Stats

	// subnets is the deduplicated, deterministically ordered set of distinct
	// collected subnets, for checkpointing.
	subnets []*core.Subnet
}

// merge builds the merged topology and the distinct-subnet set from the
// per-target results, in input order — the same fold whatever order workers
// finished in.
func (r *Report) merge(frozen []*core.Subnet) {
	m := topomap.New()
	m.AddSubnets(frozen)
	seen := make(map[*core.Subnet]bool)
	var subs []*core.Subnet
	add := func(sub *core.Subnet) {
		if !seen[sub] {
			seen[sub] = true
			subs = append(subs, sub)
		}
	}
	for _, sub := range frozen {
		add(sub)
	}
	for i := range r.Targets {
		res := r.Targets[i].Result
		if res == nil {
			continue
		}
		m.AddSession(res)
		for _, sub := range res.Subnets {
			add(sub)
		}
	}
	sortSubnets(subs)
	r.Map = m
	r.subnets = subs
}

// sortSubnets orders subnets by prefix base, prefix length, then pivot —
// a total order over distinct collected subnets.
func sortSubnets(subs []*core.Subnet) {
	sort.Slice(subs, func(i, j int) bool {
		a, b := subs[i], subs[j]
		if a.Prefix.Base() != b.Prefix.Base() {
			return a.Prefix.Base() < b.Prefix.Base()
		}
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return a.Prefix.Bits() < b.Prefix.Bits()
		}
		if a.Pivot != b.Pivot {
			return a.Pivot < b.Pivot
		}
		return a.PivotDist < b.PivotDist
	})
}

// Subnets returns the campaign's distinct collected subnets in deterministic
// order (prefix, then pivot).
func (r *Report) Subnets() []*core.Subnet { return r.subnets }

// WriteTo renders the report. Everything written is schedule-independent;
// see Report for the byte-stability contract.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder

	fmt.Fprintf(&b, "campaign: %d targets (done %d, resumed %d, budget %d, skipped %d, failed %d",
		r.Stats.Targets, r.Stats.Done, r.Stats.Resumed, r.Stats.Budget, r.Stats.Skipped, r.Stats.Failed)
	if r.Stats.Breaker > 0 {
		fmt.Fprintf(&b, ", breaker %d", r.Stats.Breaker)
	}
	b.WriteString(")\n")
	for i := range r.Targets {
		t := &r.Targets[i]
		fmt.Fprintf(&b, "  %-15v %-8s", t.Dst, t.Status)
		switch t.Status {
		case StatusDone, StatusBudget, StatusBreaker:
			fmt.Fprintf(&b, " reached=%v hops=%d subnets=%d trace-probes=%d",
				t.Reached, t.Hops, t.Subnets, t.TraceProbes)
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

	fmt.Fprintf(&b, "\nwire probes %d", r.Stats.WireProbes)
	if r.Stats.CacheMisses > 0 || r.Stats.CacheHits > 0 {
		fmt.Fprintf(&b, ", cache hits %d, misses %d, probes saved %d",
			r.Stats.CacheHits, r.Stats.CacheMisses, r.Stats.ProbesSaved)
	}
	b.WriteByte('\n')

	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
