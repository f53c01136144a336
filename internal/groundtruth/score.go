package groundtruth

import (
	"sort"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/topomap"
)

// Verdict classifies one row of the evaluation: what a collected subnet is
// relative to the truth, or that a true subnet was never collected.
type Verdict string

const (
	// VerdictExact: the collected prefix is exactly a true subnet's prefix.
	VerdictExact Verdict = "exact"
	// VerdictSubset: the collected prefix sits strictly inside one true
	// subnet (inferred narrower than reality; prefix-off-by-k with k > 0).
	VerdictSubset Verdict = "subset"
	// VerdictSuperset: the collected prefix strictly contains one or more
	// true subnets (inferred wider than reality, possibly merging several
	// real links; prefix-off-by-k with k < 0).
	VerdictSuperset Verdict = "superset"
	// VerdictPhantom: the collected prefix overlaps no true subnet at all —
	// an invented subnet.
	VerdictPhantom Verdict = "phantom"
	// VerdictMissed: a true subnet no collected entry overlaps.
	VerdictMissed Verdict = "missed"
)

// Verdicts is the canonical presentation order; renderers iterate this list
// (never a map) so artifacts stay deterministic.
var Verdicts = []Verdict{VerdictExact, VerdictSubset, VerdictSuperset, VerdictPhantom, VerdictMissed}

// CollectedSubnet is one collected observation to score: a prefix and its
// observed member addresses.
type CollectedSubnet struct {
	Prefix ipv4.Prefix `json:"prefix"`
	Addrs  []ipv4.Addr `json:"addrs"`
}

// FromTopomap adapts a merged topology map into scorable rows, in the map's
// deterministic entry order.
func FromTopomap(m *topomap.Map) []CollectedSubnet {
	entries := m.Subnets()
	out := make([]CollectedSubnet, 0, len(entries))
	for _, e := range entries {
		addrs := make([]ipv4.Addr, len(e.Addrs))
		copy(addrs, e.Addrs)
		out = append(out, CollectedSubnet{Prefix: e.Prefix, Addrs: addrs})
	}
	return out
}

// FromCoreSubnets adapts a session's collected subnets into scorable rows by
// folding them through a topology map, so overlapping observations are
// reconciled exactly the way a campaign merge reconciles them.
func FromCoreSubnets(subs []*core.Subnet) []CollectedSubnet {
	m := topomap.New()
	m.AddSubnets(subs)
	return FromTopomap(m)
}

// Row is one line of the per-subnet evaluation: a collected subnet and its
// verdict against the primary true subnet it matched (or a missed true
// subnet, with no collected side).
type Row struct {
	Verdict Verdict `json:"verdict"`
	// Collected is the observed prefix; unset (zero Bits, zero base) for
	// VerdictMissed rows.
	Collected ipv4.Prefix `json:"collected,omitempty"`
	// Truth is the primary matched true prefix; unset for VerdictPhantom.
	// For VerdictSuperset it is the overlapped true subnet sharing the most
	// member addresses with the observation.
	Truth ipv4.Prefix `json:"truth,omitempty"`
	// PrefixErr is the signed prefix-length error, collected bits minus true
	// bits: 0 for exact, k > 0 for a subnet inferred k bits too narrow,
	// k < 0 for one inferred k bits too wide. Zero for phantom/missed rows.
	PrefixErr int `json:"prefix_err,omitempty"`
	// Overlaps counts the true subnets the collected prefix intersects
	// (>1 only for superset rows that merged several real links).
	Overlaps int `json:"overlaps,omitempty"`
	// MemberHits / MemberTotal are the membership completeness of the
	// primary matched true subnet: how many of its real members the
	// observation found. MemberExtra counts observed members that are not
	// assigned addresses anywhere in the truth (phantom members).
	MemberHits  int `json:"member_hits,omitempty"`
	MemberTotal int `json:"member_total,omitempty"`
	MemberExtra int `json:"member_extra,omitempty"`
	// Blame names the planned fault kind most plausibly responsible for a
	// phantom/superset/missed row, set by Attribute. Empty when the run had
	// no adversarial faults or the row needs no explanation.
	Blame string `json:"blame,omitempty"`
}

// PrefixErrCount is one bucket of the prefix-length error histogram.
type PrefixErrCount struct {
	// Err is the signed prefix-length error (collected − true bits).
	Err int `json:"err"`
	// Count is how many non-phantom collected subnets had this error.
	Count int `json:"count"`
}

// Score is a full evaluation of one collected topology against the truth.
type Score struct {
	// TruthSubnets / CollectedSubnets are the universe sizes.
	TruthSubnets     int `json:"truth_subnets"`
	CollectedSubnets int `json:"collected_subnets"`
	// ExactCollected counts collected entries with verdict exact;
	// ExactTruth counts true subnets that have an exact collected match.
	// With deduplicated input the two are equal.
	ExactCollected int `json:"exact_collected"`
	ExactTruth     int `json:"exact_truth"`
	// MissedUnresponsive counts missed true subnets that are firewalled in
	// the simulation — misses no collector could avoid (the paper's
	// "miss\unrs" attribution).
	MissedUnresponsive int `json:"missed_unresponsive,omitempty"`

	// SubnetPrecision = exact collected / collected;
	// SubnetRecall = exactly-matched truth / truth.
	SubnetPrecision float64 `json:"subnet_precision"`
	SubnetRecall    float64 `json:"subnet_recall"`

	// Address-level accounting over the global member sets.
	TruthAddrs     int     `json:"truth_addrs"`
	CollectedAddrs int     `json:"collected_addrs"`
	CommonAddrs    int     `json:"common_addrs"`
	AddrPrecision  float64 `json:"addr_precision"`
	AddrRecall     float64 `json:"addr_recall"`

	// Rows are the per-subnet verdicts: collected rows first (in collected
	// order), then missed true subnets (in truth order).
	Rows []Row `json:"rows"`
	// PrefixErrs is the prefix-length error histogram over matched rows,
	// ascending by error.
	PrefixErrs []PrefixErrCount `json:"prefix_errs,omitempty"`

	counts map[Verdict]int
}

// Count returns how many rows carry the given verdict.
func (s *Score) Count(v Verdict) int { return s.counts[v] }

// Perfect reports whether the evaluation is flawless: every collected subnet
// exact, every true subnet collected, every member address right.
func (s *Score) Perfect() bool {
	return s.SubnetPrecision == 1 && s.SubnetRecall == 1 &&
		s.AddrPrecision == 1 && s.AddrRecall == 1
}

// ratio returns a/b, defining an empty numerator universe as perfect (an
// evaluation with nothing to collect and nothing collected scores 1).
func ratio(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// Score evaluates collected subnets against the truth.
func (t *Truth) Score(collected []CollectedSubnet) *Score {
	s := &Score{
		TruthSubnets:     len(t.Subnets),
		CollectedSubnets: len(collected),
		counts:           make(map[Verdict]int),
	}

	exactTruth := make(map[ipv4.Prefix]bool)
	covered := make([]bool, len(t.Subnets))
	errHist := map[int]int{}
	collectedAddrs := make(map[ipv4.Addr]bool)

	for _, c := range collected {
		for _, a := range c.Addrs {
			collectedAddrs[a] = true
		}
		row := Row{Collected: c.Prefix}
		lo, hi := t.overlapping(c.Prefix)
		row.Overlaps = hi - lo
		if lo == hi {
			row.Verdict = VerdictPhantom
			row.MemberExtra = countExtras(c.Addrs, t)
			s.counts[row.Verdict]++
			s.Rows = append(s.Rows, row)
			continue
		}
		primary := t.primaryMatch(c, lo, hi)
		ts := &t.Subnets[primary]
		row.Truth = ts.Prefix
		row.PrefixErr = c.Prefix.Bits() - ts.Prefix.Bits()
		switch {
		case row.PrefixErr == 0:
			row.Verdict = VerdictExact
			exactTruth[ts.Prefix] = true
			s.ExactCollected++
		case row.PrefixErr > 0:
			row.Verdict = VerdictSubset
		default:
			row.Verdict = VerdictSuperset
		}
		row.MemberHits, row.MemberTotal = countHits(c.Addrs, ts)
		row.MemberExtra = countExtras(c.Addrs, t)
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
		errHist[row.PrefixErr]++
		s.counts[row.Verdict]++
		s.Rows = append(s.Rows, row)
	}

	for i := range t.Subnets {
		ts := &t.Subnets[i]
		if covered[i] {
			continue
		}
		s.counts[VerdictMissed]++
		if ts.Unresponsive {
			s.MissedUnresponsive++
		}
		s.Rows = append(s.Rows, Row{Verdict: VerdictMissed, Truth: ts.Prefix, MemberTotal: len(ts.Addrs)})
	}

	s.ExactTruth = len(exactTruth)
	s.SubnetPrecision = ratio(s.ExactCollected, s.CollectedSubnets)
	s.SubnetRecall = ratio(s.ExactTruth, s.TruthSubnets)

	common := 0
	for a := range collectedAddrs {
		if t.addrs[a] {
			common++
		}
	}
	s.TruthAddrs = t.AddrCount()
	s.CollectedAddrs = len(collectedAddrs)
	s.CommonAddrs = common
	s.AddrPrecision = ratio(common, s.CollectedAddrs)
	s.AddrRecall = ratio(common, s.TruthAddrs)

	for err, n := range errHist {
		s.PrefixErrs = append(s.PrefixErrs, PrefixErrCount{Err: err, Count: n})
	}
	sort.Slice(s.PrefixErrs, func(i, j int) bool { return s.PrefixErrs[i].Err < s.PrefixErrs[j].Err })
	return s
}

// primaryMatch picks the true subnet a collected observation is scored
// against among the overlapped run [lo, hi): the exact-prefix match when
// there is one, otherwise the overlapped subnet sharing the most member
// addresses with the observation, ties broken by subnet order (base, then
// bits) — all deterministic.
func (t *Truth) primaryMatch(c CollectedSubnet, lo, hi int) int {
	best, bestShared := lo, -1
	for i := lo; i < hi; i++ {
		ts := &t.Subnets[i]
		if ts.Prefix == c.Prefix {
			return i
		}
		shared, _ := countHits(c.Addrs, ts)
		if shared > bestShared {
			best, bestShared = i, shared
		}
	}
	return best
}

// countHits returns how many of the true subnet's members the observation
// found, and the true member total.
func countHits(addrs []ipv4.Addr, ts *TrueSubnet) (hits, total int) {
	member := make(map[ipv4.Addr]bool, len(ts.Addrs))
	for _, a := range ts.Addrs {
		member[a] = true
	}
	for _, a := range addrs {
		if member[a] {
			hits++
		}
	}
	return hits, len(ts.Addrs)
}

// countExtras returns how many observed members are not assigned addresses
// anywhere in the truth (phantom members).
func countExtras(addrs []ipv4.Addr, t *Truth) int {
	extra := 0
	for _, a := range addrs {
		if !t.addrs[a] {
			extra++
		}
	}
	return extra
}
