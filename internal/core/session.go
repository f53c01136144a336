package core

import (
	"errors"
	"fmt"
	"strconv"

	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// Session collects subnets along paths from one vantage point, accumulating
// results across multiple destinations so that subnets discovered on one
// trace are reused (not re-explored) by later traces.
//
// A session degrades gracefully under network faults: transport errors are
// absorbed as silent probes (never aborting the trace), and subnets whose
// collection observed definite fault evidence are annotated with
// Degraded/Confidence instead of being silently misreported as clean.
// Resuming interrupted collection is the campaign engine's job
// (internal/collect checkpoints).
type Session struct {
	pr  *probe.Prober
	cfg Config

	// collected maps member addresses onto the subnets already grown, for
	// the SkipKnown optimization.
	collected map[ipv4.Addr]*Subnet
	subnets   []*Subnet

	// quarantined maps addresses with internally inconsistent responses onto
	// the reason they were quarantined (Config.Defend; see defense.go).
	quarantined map[ipv4.Addr]string

	// Telemetry handles, resolved once from the prober's layer and nil-safe,
	// so an uninstrumented session pays only nil checks. Phase accounting
	// (trace/position/explore probes) comes from probe.Scope deltas, which
	// also ride on the spans as scoped counters.
	tel             *telemetry.Telemetry
	cTraces         *telemetry.Counter
	cHops           *telemetry.Counter
	cSubnets        *telemetry.Counter
	cRevisits       *telemetry.Counter
	cDegraded       *telemetry.Counter
	cRecovered      *telemetry.Counter
	cTraceProbes    *telemetry.Counter
	cPositionProbes *telemetry.Counter
	cExploreProbes  *telemetry.Counter
	cDefenseProbes  *telemetry.Counter
	cShared         *telemetry.Counter
	cQuarantined    *telemetry.Counter
	cCrossChecks    *telemetry.Counter
	cDemotions      *telemetry.Counter
	hSubnetBits     *telemetry.Histogram
	hSubnetProbes   *telemetry.Histogram
}

// SubnetPrefixBuckets are the subnet-size histogram bounds in prefix bits:
// /31 point-to-point links dominate core topologies, so the interesting mass
// sits at the top of the range.
var SubnetPrefixBuckets = []uint64{24, 26, 28, 29, 30, 31, 32}

// SubnetProbeBuckets bound the per-subnet probe-cost histogram (§3.6).
var SubnetProbeBuckets = []uint64{4, 8, 16, 32, 64, 128, 256, 512}

// NewSession creates a tracenet session over the given prober, inheriting
// the prober's telemetry layer (if any).
func NewSession(pr *probe.Prober, cfg Config) *Session {
	s := &Session{
		pr:          pr,
		cfg:         cfg.withDefaults(),
		collected:   make(map[ipv4.Addr]*Subnet),
		quarantined: make(map[ipv4.Addr]string),
	}
	s.bindTelemetry()
	return s
}

// bindTelemetry resolves the session's metric handles from the prober's
// telemetry layer. All handles are inert when the prober runs bare.
func (s *Session) bindTelemetry() {
	tel := s.pr.Telemetry()
	s.tel = tel
	s.cTraces = tel.Counter("tracenet_session_traces_total")
	s.cHops = tel.Counter("tracenet_session_hops_total")
	s.cSubnets = tel.Counter("tracenet_session_subnets_total")
	s.cRevisits = tel.Counter("tracenet_session_revisits_total")
	s.cDegraded = tel.Counter("tracenet_session_degraded_subnets_total")
	s.cRecovered = tel.Counter("tracenet_session_recovered_errors_total")
	s.cTraceProbes = tel.Counter("tracenet_session_probes_total", "phase", "trace")
	s.cPositionProbes = tel.Counter("tracenet_session_probes_total", "phase", "position")
	s.cExploreProbes = tel.Counter("tracenet_session_probes_total", "phase", "explore")
	s.cDefenseProbes = tel.Counter("tracenet_session_probes_total", "phase", "defense")
	s.cShared = tel.Counter("tracenet_session_shared_hits_total")
	s.cQuarantined = tel.Counter("tracenet_defense_quarantined_total")
	s.cCrossChecks = tel.Counter("tracenet_defense_crosschecks_total")
	s.cDemotions = tel.Counter("tracenet_defense_demotions_total")
	s.hSubnetBits = tel.Histogram("tracenet_session_subnet_prefix_bits", SubnetPrefixBuckets)
	s.hSubnetProbes = tel.Histogram("tracenet_session_subnet_probes", SubnetProbeBuckets)
}

// Subnets returns every distinct subnet collected so far, in discovery order.
func (s *Session) Subnets() []*Subnet { return s.subnets }

// recoverable reports whether err is a fault the session absorbs (treating
// the probe as silent) rather than an abort condition. Budget exhaustion and
// programming errors still propagate.
func recoverable(err error) bool {
	return errors.Is(err, probe.ErrTransport)
}

// Trace runs one tracenet session toward dst: a path trace that grows the
// subnet at every responsive hop. Under network faults the trace never
// aborts: faulty probes read as silence, affected hops and subnets are
// annotated as degraded, and the partial result stays usable.
func (s *Session) Trace(dst ipv4.Addr) (*Result, error) {
	s.cTraces.Inc()
	span := s.tel.StartSpan("trace", "dst", dst.String())
	scope := s.pr.Scope()
	res, err := s.trace(dst)
	scope.CountInto(span)
	span.End()
	// A trace the breaker truncated ended on manufactured silence, not an
	// observed outcome: mark it so a campaign leaves it out of its
	// checkpoint and a resume (whose breaker starts closed) retries it.
	if err == nil && !res.Reached && scope.Delta().BreakerSkips > 0 {
		res.BreakerLimited = true
	}
	if len(s.quarantined) > 0 {
		res.Quarantined = s.Quarantined()
	}
	return res, err
}

func (s *Session) trace(dst ipv4.Addr) (*Result, error) {
	res := &Result{Dst: dst}
	u := ipv4.Zero // interface obtained at the previous hop
	gaps := 0
	seen := map[ipv4.Addr]bool{} // loop guard on trace-collection addresses

	for d := 1; d <= s.cfg.MaxTTL; d++ {
		hopScope := s.pr.Scope()
		hopSpan := s.tel.StartSpan("hop", "ttl", strconv.Itoa(d))
		stop, err := s.traceHop(dst, d, &u, &gaps, seen, res)
		s.cHops.Inc()
		hopScope.CountInto(hopSpan)
		hopSpan.End()
		if err != nil || stop {
			return res, err
		}
	}
	return res, nil
}

// traceHop runs one TTL of the trace: the trace-collection probe plus, when
// it identified an interface, the subnet exploration at that hop. It reports
// stop = true when the trace is complete (destination reached, unreachable,
// loop, or gap limit).
func (s *Session) traceHop(dst ipv4.Addr, d int, u *ipv4.Addr, gaps *int,
	seen map[ipv4.Addr]bool, res *Result) (stop bool, err error) {
	// Trace collection: one indirect probe at TTL d. The TTL-1 probe stays
	// off the campaign memo, so the first packet every traced target puts
	// on the wire is its own, toward the target.
	tc := s.pr.Scope()
	recoveredHere := false
	var r probe.Result
	if d == 1 {
		r, err = s.pr.ProbeUnshared(dst, d)
	} else {
		r, err = s.pr.Probe(dst, d)
	}
	if err != nil {
		if !recoverable(err) {
			return true, err
		}
		// Faulty transport: absorb as a silent hop and keep going.
		res.Recovered++
		s.cRecovered.Inc()
		recoveredHere = true
		r = probe.Result{}
	}
	tcd := tc.Delta()
	res.TraceProbes += tcd.Sent
	s.cTraceProbes.Add(tcd.Sent)
	degraded := tcd.FaultEvents() > 0 || recoveredHere
	if s.cfg.Defend {
		ds := s.pr.Scope()
		var flagged bool
		r, flagged = s.defendHop(dst, d, r)
		dd := ds.Delta().Sent
		res.DefenseProbes += dd
		s.cDefenseProbes.Add(dd)
		degraded = degraded || flagged
	}
	hop := Hop{TTL: d, Addr: r.From, Kind: r.Kind, Degraded: degraded}

	switch {
	case r.Expired() || r.Alive():
		v := r.From
		if r.Alive() && v != dst {
			// An alive reply from a different address (e.g. a default-
			// interface router answering early) still identifies v.
			v = r.From
		}
		if seen[v] && !r.Alive() {
			if s.cfg.Defend {
				// The same source answering at two TTLs is the alias-confuse
				// symptom (or a genuine routing loop — either way the address
				// cannot pin a hop): quarantine it and keep walking with an
				// anonymous hop instead of declaring the trace finished.
				s.quarantineAddr(v, fmt.Sprintf("answered at multiple TTLs (latest %d)", d))
				hop.Addr = ipv4.Zero
				hop.Kind = probe.None
				hop.Degraded = true
				res.Hops = append(res.Hops, hop)
				*u = ipv4.Zero
				*gaps = *gaps + 1
				return *gaps >= maxConsecutiveGaps, nil
			}
			// Routing loop: the same interface answered two TTLs.
			res.Hops = append(res.Hops, hop)
			return true, nil
		}
		seen[v] = true
		if err := s.exploreHop(&hop, *u, v, d, res); err != nil {
			return true, err
		}
		*u = v
		*gaps = 0
	case r.Kind == probe.HostUnreachable:
		res.Hops = append(res.Hops, hop)
		return true, nil
	default: // silent hop
		*u = ipv4.Zero
		*gaps = *gaps + 1
		if *gaps >= maxConsecutiveGaps {
			res.Hops = append(res.Hops, hop)
			return true, nil
		}
	}

	res.Hops = append(res.Hops, hop)
	if r.Alive() {
		res.Reached = true
		return true, nil
	}
	return false, nil
}

// exploreHop positions and grows the subnet for the interface v obtained at
// hop d, reuses a previously collected subnet containing v, or — in a
// campaign — adopts the growth another session already ran for this hop
// context through the shared subnet cache.
func (s *Session) exploreHop(hop *Hop, u, v ipv4.Addr, d int, res *Result) error {
	if s.cfg.Defend && s.isQuarantined(v) {
		// A quarantined address may not seed a subnet: the hop stays bare.
		hop.Degraded = true
		return nil
	}
	// SkipKnown: reuse a subnet already collected earlier in the session
	// when v is one of its members, instead of re-exploring (the
	// optimization the paper alludes to in §3.5: "our tracenet
	// implementation is optimized to collect the subnets with the least
	// number of probes").
	if known, ok := s.collected[v]; ok {
		hop.Subnet = known
		hop.Revisited = true
		s.cRevisits.Inc()
		if !containsSubnet(res.Subnets, known) {
			res.Subnets = append(res.Subnets, known)
		}
		return nil
	}

	var err error
	if s.cfg.Shared != nil {
		// Clear the prober's response cache so an owned growth's wire cost is
		// a pure function of the hop context (v, u, d) — independent of what
		// this session probed before — which keeps campaign probe totals
		// schedule-independent (see SharedSubnetCache).
		s.pr.ClearCache()
		var g Growth
		var hit bool
		g, hit, err = s.cfg.Shared.ExploreHop(v, u, d, func() (Growth, error) {
			return s.growSubnet(hop, u, v, d, res)
		})
		if err == nil && hit {
			s.adoptShared(hop, g.Subnet, res)
		}
	} else {
		_, err = s.growSubnet(hop, u, v, d, res)
	}
	if err != nil {
		if recoverable(err) {
			// Growth died on a faulty transport: record the hop bare and
			// degraded instead of aborting the session. Waiters on a shared
			// growth absorb the owner's error the same way.
			res.Recovered++
			s.cRecovered.Inc()
			hop.Degraded = true
			return nil
		}
		return err
	}
	return nil
}

// growSubnet runs the position and explore phases for pivot v at hop d and,
// on success, registers the grown subnet with the session. Errors propagate
// raw — the caller decides whether they are absorbable — so a shared cache
// never memoizes a faulted growth. A nil-Subnet Growth means v was
// unpositionable (the hop stays bare, and that outcome is memoizable).
func (s *Session) growSubnet(hop *Hop, u, v ipv4.Addr, d int, res *Result) (Growth, error) {
	// One scope brackets both phases: its delta is the subnet's own share of
	// answered/silent/faulted probes, from which Confidence derives.
	work := s.pr.Scope()

	ps := s.pr.Scope()
	posSpan := s.tel.StartSpan("position", "pivot", v.String())
	pos, err := findPosition(s.pr, u, v, d, s.cfg)
	ps.CountInto(posSpan)
	posSpan.End()
	positionCost := ps.Delta().Sent
	res.PositionProbes += positionCost
	s.cPositionProbes.Add(positionCost)
	if err != nil {
		return Growth{Cost: positionCost}, err
	}
	if !pos.ok {
		// v unpositionable: hop recorded without a subnet.
		return Growth{Cost: positionCost}, nil
	}
	if s.cfg.Defend && s.cfg.Shared == nil && s.isQuarantined(pos.pivot) {
		// Positioning may move the pivot off the hop address (onto the
		// destination's /31 mate, say); a quarantined pivot may not seed a
		// subnet any more than a quarantined hop address — it would enter
		// the membership unexamined.
		hop.Degraded = true
		return Growth{Cost: positionCost}, nil
	}

	var quar func(ipv4.Addr) bool
	if s.cfg.Defend && s.cfg.Shared == nil {
		// Shared growths must stay pure functions of their hop context, so
		// the session-global quarantine set never gates their candidates.
		quar = s.isQuarantined
	}
	es := s.pr.Scope()
	expSpan := s.tel.StartSpan("explore", "pivot", v.String())
	sub, err := explore(s.pr, pos, u, s.cfg, quar)
	es.CountInto(expSpan)
	expSpan.End()
	exploreCost := es.Delta().Sent
	res.ExploreProbes += exploreCost
	s.cExploreProbes.Add(exploreCost)
	if err != nil {
		return Growth{Cost: positionCost + exploreCost}, err
	}
	sub.Probes = positionCost + exploreCost

	// Degradation annotation: the subnet's own share of answered probes and
	// any definite fault evidence observed while positioning/exploring it.
	wd := work.Delta()
	answered := wd.Answered
	silent := wd.Timeouts
	faults := wd.FaultEvents()
	if logical := answered + silent + faults; logical > 0 {
		sub.Confidence = float64(answered) / float64(logical)
	} else {
		sub.Confidence = 1
	}
	if faults > 0 {
		sub.Degraded = true
		hop.Degraded = true
	}

	if s.cfg.Defend {
		// Cross-validate the membership from a second TTL position before the
		// subnet is published (DESIGN.md §11); runs inside the owned growth so
		// a shared cache memoizes the defended subnet.
		ds := s.pr.Scope()
		defErr := s.defendSubnet(sub)
		dd := ds.Delta().Sent
		res.DefenseProbes += dd
		s.cDefenseProbes.Add(dd)
		sub.Probes += dd
		if defErr != nil {
			return Growth{Cost: positionCost + exploreCost + dd}, defErr
		}
		if sub.Degraded {
			hop.Degraded = true
		}
	}

	hop.Subnet = sub
	s.subnets = append(s.subnets, sub)
	s.cSubnets.Inc()
	s.hSubnetBits.Observe(uint64(sub.Prefix.Bits()))
	s.hSubnetProbes.Observe(sub.Probes)
	if sub.Degraded {
		s.cDegraded.Inc()
		// A degraded subnet is the session-level degradation signal: dump
		// the probe history that led to it while the flight recorder still
		// holds it.
		s.tel.Incident(fmt.Sprintf("subnet-degraded %v conf=%.2f", sub.Prefix, sub.Confidence))
	}
	res.Subnets = append(res.Subnets, sub)
	for _, a := range sub.Addrs {
		if _, dup := s.collected[a]; !dup {
			s.collected[a] = sub
		}
	}
	return Growth{Subnet: sub, Cost: sub.Probes}, nil
}

// adoptShared installs a subnet grown by another session into this trace: the
// hop points at the shared subnet, the result lists it once, and its members
// join the session's SkipKnown index so later hops of this trace reuse it
// without consulting the cache again. No packets were spent here; a nil sub
// means the context was memoized as unpositionable and the hop stays bare.
func (s *Session) adoptShared(hop *Hop, sub *Subnet, res *Result) {
	hop.Shared = true
	s.cShared.Inc()
	if sub == nil {
		return
	}
	hop.Subnet = sub
	if !containsSubnet(res.Subnets, sub) {
		res.Subnets = append(res.Subnets, sub)
	}
	for _, a := range sub.Addrs {
		if _, dup := s.collected[a]; !dup {
			s.collected[a] = sub
		}
	}
}

func containsSubnet(list []*Subnet, s *Subnet) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// Trace is the one-shot convenience wrapper: a fresh session tracing a single
// destination.
func Trace(pr *probe.Prober, dst ipv4.Addr, cfg Config) (*Result, error) {
	return NewSession(pr, cfg).Trace(dst)
}
