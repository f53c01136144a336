package core

import (
	"fmt"

	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
)

// Adversarial defenses (DESIGN.md §11), enabled by Config.Defend.
//
// The paper's collector trusts every reply: the source address of a
// time-exceeded names the hop, and an alive outcome at the pivot distance
// admits a candidate to the subnet. A byzantine responder (internal/netsim's
// liar / alias-confuse / hidden-hop / echo faults) exploits exactly that
// trust to make the collector infer structure that does not exist. The
// defenses below buy back precision with extra probes:
//
//   - cross-validation: suspicious observations are re-probed through
//     probe.ProbeUncached — a lying responder's first answer never vouches
//     for itself — and subnet members are validated from a second TTL
//     position (PivotDist+1) before the subnet is published;
//   - quarantine: an address whose responses are internally inconsistent
//     (the same probing context answered from different sources, or a
//     member contradicted by a definite non-alive outcome) is quarantined —
//     stripped from collected subnets and never re-admitted as a member;
//   - demotion: outcomes that are merely unconfirmed (silence on
//     re-validation, which honest rate limiting also produces) strip the
//     member but only demote the subnet's Confidence, without quarantining
//     the address.

// defenseValidations is how many independent re-probes defendSubnet spends
// per non-pivot member. A fabricated "alive" holds across k draws only with
// the fault's per-reply probability to the k-th power, while a genuine
// member on a lossless path answers every time.
const defenseValidations = 2

// isQuarantined reports whether a has been quarantined this session.
func (s *Session) isQuarantined(a ipv4.Addr) bool {
	_, ok := s.quarantined[a]
	return ok
}

// Quarantined returns the quarantined addresses, ascending.
func (s *Session) Quarantined() []ipv4.Addr {
	out := make([]ipv4.Addr, 0, len(s.quarantined))
	for a := range s.quarantined {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

// quarantineAddr quarantines a: records the reason, strips a from every
// subnet collected so far, and bars it from future membership (explore skips
// quarantined candidates, exploreHop skips quarantined pivots).
func (s *Session) quarantineAddr(a ipv4.Addr, reason string) {
	if a.IsZero() || s.isQuarantined(a) {
		return
	}
	s.quarantined[a] = reason
	s.cQuarantined.Inc()
	if s.tel.HasRecorder() {
		s.tel.Record("defense", fmt.Sprintf("quarantine %v: %s", a, reason))
	}
	delete(s.collected, a)
	if s.cfg.Shared != nil {
		// Campaign subnets are shared pointers across concurrently running
		// sessions; stripping them here would race and break the campaign's
		// schedule-independence. Quarantine still bars future use.
		return
	}
	for _, sub := range s.subnets {
		stripMember(sub, a)
	}
}

// stripMember removes a from sub's membership, degrading the subnet; it
// reports whether a was a member.
func stripMember(sub *Subnet, a ipv4.Addr) bool {
	idx := -1
	for i, m := range sub.Addrs {
		if m == a {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	sub.Addrs = append(sub.Addrs[:idx], sub.Addrs[idx+1:]...)
	if sub.ContraPivot == a {
		sub.ContraPivot = ipv4.Zero
	}
	sub.Degraded = true
	return true
}

// defendHop cross-validates one trace-collection outcome before the session
// acts on it, returning the (possibly corrected) result and whether the hop
// was flagged as suspicious.
func (s *Session) defendHop(dst ipv4.Addr, d int, r probe.Result) (probe.Result, bool) {
	switch {
	case r.Alive():
		// FaultEcho symptom: a fabricated "alive" at a TTL the genuine
		// destination cannot answer from truncates the trace early. A
		// genuine alive outcome reproduces on an uncached re-probe; the
		// fabricated one holds only with the fault's per-reply probability.
		s.cCrossChecks.Inc()
		r2, err := s.pr.ProbeUncached(dst, d)
		if err != nil || r2.Alive() {
			return r, false
		}
		return r2, true
	case r.Expired():
		if s.isQuarantined(r.From) {
			// A known liar answered: keep the hop anonymous.
			return probe.Result{}, true
		}
		// FaultLiar symptom: the same (dst, TTL) context answered from two
		// different sources. Neither can be trusted to name the hop, and
		// neither may seed a subnet exploration — quarantine both. Honest
		// per-flow paths answer a repeated probe from the same interface.
		s.cCrossChecks.Inc()
		r2, err := s.pr.ProbeUncached(dst, d)
		if err == nil && r2.Expired() &&
			!r.From.IsZero() && !r2.From.IsZero() && r2.From != r.From {
			s.quarantineAddr(r.From, fmt.Sprintf(
				"inconsistent source at (dst %v, ttl %d): also saw %v", dst, d, r2.From))
			s.quarantineAddr(r2.From, fmt.Sprintf(
				"inconsistent source at (dst %v, ttl %d): also saw %v", dst, d, r.From))
			return probe.Result{}, true
		}
	}
	return r, false
}

// defendSubnet cross-validates a freshly grown subnet's membership from a
// second TTL position before the subnet is published. Every genuine member
// sits at hop distance PivotDist or PivotDist-1, so a direct probe at
// PivotDist+1 must find it alive; an address minted by a fabricated reply
// fails that re-validation unless the fault lies defenseValidations times in
// a row. Definite contradictions (TTL expiry, host-unreachable) quarantine
// the address; silence merely strips it and demotes the subnet's Confidence,
// because honest rate limiting produces silence too.
func (s *Session) defendSubnet(sub *Subnet) error {
	ttl := sub.PivotDist + 1
	if ttl < 2 || ttl > 255 {
		return nil
	}
	var confirmed, contradicted, unconfirmed int
	keep := make([]ipv4.Addr, 0, len(sub.Addrs))
	for _, a := range sub.Addrs {
		if a == sub.Pivot {
			// Positioning already pinned the pivot from two TTL positions.
			keep = append(keep, a)
			continue
		}
		alive, definiteNo := true, false
		for i := 0; i < defenseValidations && alive && !definiteNo; i++ {
			s.cCrossChecks.Inc()
			r, err := s.pr.ProbeUncached(a, ttl)
			if err != nil {
				if !recoverable(err) {
					return err
				}
				alive = false
				break
			}
			switch {
			case r.Alive():
			case r.Expired() || r.Kind == probe.HostUnreachable:
				definiteNo = true
			default:
				alive = false
			}
		}
		switch {
		case definiteNo:
			contradicted++
			s.quarantineAddr(a, fmt.Sprintf(
				"member of %v contradicted at ttl %d", sub.Prefix, ttl))
		case alive:
			confirmed++
			keep = append(keep, a)
		default:
			unconfirmed++
		}
	}
	if contradicted == 0 && unconfirmed == 0 {
		return nil
	}
	sub.Addrs = keep
	if !sub.ContraPivot.IsZero() && !sub.Contains(sub.ContraPivot) {
		sub.ContraPivot = ipv4.Zero
	}
	// Re-derive the covering prefix of the surviving members: growth that
	// only phantom members justified must not survive in the prefix either.
	bits := 32
	for _, a := range sub.Addrs {
		if l := ipv4.CommonPrefixLen(sub.Pivot, a); l < bits {
			bits = l
		}
	}
	if len(sub.Addrs) <= 1 {
		bits = 32
	}
	if bits > sub.Prefix.Bits() {
		sub.Prefix = ipv4.NewPrefix(sub.Pivot, bits)
	}
	sub.Degraded = true
	checked := confirmed + contradicted + unconfirmed
	if checked > 0 {
		sub.Confidence *= float64(confirmed) / float64(checked)
		s.cDemotions.Inc()
	}
	return nil
}
