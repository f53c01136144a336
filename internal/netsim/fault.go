package netsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"tracenet/internal/ipv4"
)

// FaultKind enumerates the injectable network pathologies. Each kind models
// one of the "what cannot be measured" failure modes a production collector
// faces: silent link failures, dead routers, mangled replies, late replies,
// ICMP rate-limit storms, and mid-session routing churn.
type FaultKind uint8

const (
	// FaultLinkFlap takes a subnet down: any packet that would be forwarded
	// or delivered across it vanishes silently while the fault is active.
	// Scope: Subnet (required).
	FaultLinkFlap FaultKind = iota
	// FaultBlackhole makes a router drop every packet silently — it neither
	// forwards nor generates any reply. Scope: Router ("" = all routers).
	FaultBlackhole
	// FaultCorrupt flips random bytes of an encoded reply with probability
	// Prob per reply. Checksums are not fixed up, so the prober sees a
	// decode failure (a corrupt datagram on a real socket).
	FaultCorrupt
	// FaultTruncate cuts an encoded reply to a random shorter length with
	// probability Prob per reply (a truncated read on a real socket).
	FaultTruncate
	// FaultDelay makes a reply arrive after the prober's timeout with
	// probability Prob per reply: the router answered, but the prober
	// observes silence.
	FaultDelay
	// FaultDuplicate duplicates a reply with probability Prob. The duplicate
	// gives the reply a second, independent chance to survive the network's
	// configured loss, so duplication *improves* delivery — the one benign
	// fault, included because deduplication bugs are a classic collector
	// failure.
	FaultDuplicate
	// FaultRateStorm rate-limits the replies of the scoped routers with a
	// token bucket (Rate tokens/tick, Burst capacity) while active; the
	// network holds one bucket per scoped router. With no window it is a
	// router's standing ICMP rate limit. Scope: Router ("" = all routers).
	FaultRateStorm
	// FaultChurn reshuffles equal-cost path choices every churnPeriod clock
	// ticks while active, modelling mid-walk topology/routing churn even
	// for per-flow (Paris-stable) probing.
	FaultChurn

	// The kinds below are byzantine: instead of losing or mangling traffic,
	// the network actively lies. They model the "Misleading Stars" class of
	// adversarial responders that make tomography infer structure that does
	// not exist.

	// FaultLiar makes scoped routers answer indirect probes (time-exceeded,
	// unreachables) with a rotating spoofed source address drawn from the
	// topology's real interfaces: every reply claims to come from a different
	// router. Scope: Router ("" = all routers); Prob per reply.
	FaultLiar
	// FaultAliasConfuse makes every scoped router answer indirect probes with
	// one shared source address (anycast-style): distinct interfaces at
	// different hop distances collapse onto a single identity. Scope: Router
	// ("" = all routers); Addr optionally pins the shared address (default:
	// the topology's lowest non-host interface address).
	FaultAliasConfuse
	// FaultHiddenHop turns scoped routers into MPLS-style transparent
	// forwarders while active: they decrement TTL and forward exactly as
	// before, but never generate ICMP (no time-exceeded, no unreachables).
	// The hop exists, consumes a TTL, and is unobservable. Scope: Router
	// ("" = all routers).
	FaultHiddenHop
	// FaultEcho makes scoped routers answer probes they would otherwise
	// reject with an ICMP error (TTL expiry, unassigned destination) with a
	// fabricated alive reply whose source mirrors the probe's destination:
	// every address the collector asks about appears to exist. Scope: Router
	// ("" = all routers); Prob per reply.
	FaultEcho
)

// faultKindInfo is one row of the per-kind table: a kind's plan name, the
// flight-recorder message of one strike, and the Fault fields and draws that
// apply to it.
type faultKindInfo struct {
	name string
	// event opens the recorder message; a router-scoped strike appends the
	// router's name, a link flap its subnet. Churn counts no strikes and has
	// no event.
	event string
	// router: Fault.Router scopes the kind ("" = every router).
	router bool
	// prob: the kind strikes with probability Fault.Prob per decision.
	prob bool
	// adversarial: the network lies rather than loses, mangles or delays.
	adversarial bool
}

// faultKinds is the per-kind table, indexed by FaultKind.
var faultKinds = [...]faultKindInfo{
	FaultLinkFlap:     {name: "link-flap", event: "link-flap drop"},
	FaultBlackhole:    {name: "blackhole", event: "blackhole drop", router: true},
	FaultCorrupt:      {name: "corrupt", event: "corrupted reply", prob: true},
	FaultTruncate:     {name: "truncate", event: "truncated reply", prob: true},
	FaultDelay:        {name: "delay", event: "delayed reply (seen as silence)", prob: true},
	FaultDuplicate:    {name: "duplicate", event: "duplicated reply", prob: true},
	FaultRateStorm:    {name: "rate-storm", event: "rate-storm drop", router: true},
	FaultChurn:        {name: "churn"},
	FaultLiar:         {name: "liar", event: "liar spoofed source", router: true, prob: true, adversarial: true},
	FaultAliasConfuse: {name: "alias-confuse", event: "alias-confuse shared source", router: true, adversarial: true},
	FaultHiddenHop:    {name: "hidden-hop", event: "hidden-hop suppressed reply", router: true, adversarial: true},
	FaultEcho:         {name: "echo", event: "echo fabricated alive reply", router: true, prob: true, adversarial: true},
}

// known reports whether k is a row of the per-kind table.
func (k FaultKind) known() bool { return int(k) < len(faultKinds) }

// Adversarial reports whether the kind is byzantine (the network lies) rather
// than benign (the network loses, mangles, or delays).
func (k FaultKind) Adversarial() bool {
	return k.known() && faultKinds[k].adversarial
}

// FaultKinds lists every known kind in enum order, for consumers that need a
// deterministic iteration (telemetry registration, documentation tables).
var FaultKinds = []FaultKind{
	FaultLinkFlap, FaultBlackhole, FaultCorrupt, FaultTruncate, FaultDelay,
	FaultDuplicate, FaultRateStorm, FaultChurn,
	FaultLiar, FaultAliasConfuse, FaultHiddenHop, FaultEcho,
}

func (k FaultKind) String() string {
	if k.known() {
		return faultKinds[k].name
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// MarshalJSON renders the kind as its stable string name.
func (k FaultKind) MarshalJSON() ([]byte, error) {
	if !k.known() {
		return nil, fmt.Errorf("netsim: unknown fault kind %d", uint8(k))
	}
	return json.Marshal(faultKinds[k].name)
}

// ErrUnknownFaultKind is returned when a fault plan names a kind this build
// does not know — a plan written for a newer collector, or a typo. Callers
// match it with errors.Is to distinguish schema drift from malformed JSON.
var ErrUnknownFaultKind = errors.New("netsim: unknown fault kind")

// UnmarshalJSON parses a fault kind from its string name. Unknown or future
// kind names fail with ErrUnknownFaultKind instead of silently decoding to an
// arbitrary value.
func (k *FaultKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, info := range faultKinds {
		if info.name == s {
			*k = FaultKind(kind)
			return nil
		}
	}
	return fmt.Errorf("%w %q", ErrUnknownFaultKind, s)
}

// churnPeriod is how many clock ticks one churn epoch lasts: equal-cost
// decisions are stable within an epoch and reshuffle at its boundary.
const churnPeriod = 16

// Fault is one scheduled fault. The window [From, Until) is expressed in the
// network's virtual clock, which ticks once per injected probe; Until == 0
// leaves the fault active forever. A plan that sets a field its kind ignores
// is refused.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// From and Until bound the active window on the virtual clock.
	From  uint64 `json:"from,omitempty"`
	Until uint64 `json:"until,omitempty"`
	// Router scopes a router-scoped kind (blackhole, rate-storm, liar,
	// alias-confuse, hidden-hop, echo) to one named router; empty means
	// every router.
	Router string `json:"router,omitempty"`
	// Subnet scopes a link flap to one subnet by CIDR prefix (required for
	// FaultLinkFlap).
	Subnet string `json:"subnet,omitempty"`
	// Prob is the per-reply probability for corrupt/truncate/delay/duplicate
	// and the byzantine liar/echo kinds.
	Prob float64 `json:"prob,omitempty"`
	// Rate and Burst configure the override token bucket of a rate storm.
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// Addr pins the shared source address of an alias-confuse fault (dotted
	// quad); empty selects the topology's lowest non-host interface address.
	Addr string `json:"addr,omitempty"`
}

func (f Fault) active(clock uint64) bool {
	return clock >= f.From && (f.Until == 0 || clock < f.Until)
}

// validate checks the fields that can be checked without a topology.
func (f Fault) validate(i int) error {
	if !f.Kind.known() {
		return fmt.Errorf("netsim: fault %d: %w %d", i, ErrUnknownFaultKind, uint8(f.Kind))
	}
	if f.Until != 0 && f.Until <= f.From {
		return fmt.Errorf("netsim: fault %d (%v): empty window [%d,%d)", i, f.Kind, f.From, f.Until)
	}
	k := faultKinds[f.Kind]
	for _, field := range [...]struct {
		name       string
		set, known bool
	}{
		{"router", f.Router != "", k.router},
		{"subnet", f.Subnet != "", f.Kind == FaultLinkFlap},
		{"prob", f.Prob != 0, k.prob},
		{"rate", f.Rate != 0, f.Kind == FaultRateStorm},
		{"burst", f.Burst != 0, f.Kind == FaultRateStorm},
		{"addr", f.Addr != "", f.Kind == FaultAliasConfuse},
	} {
		if field.set && !field.known {
			return fmt.Errorf("netsim: fault %d (%v): %s does not apply to this kind", i, f.Kind, field.name)
		}
	}
	if k.prob && (f.Prob <= 0 || f.Prob > 1) {
		return fmt.Errorf("netsim: fault %d (%v): prob %v outside (0,1]", i, f.Kind, f.Prob)
	}
	switch f.Kind {
	case FaultLinkFlap:
		if f.Subnet == "" {
			return fmt.Errorf("netsim: fault %d (link-flap): subnet prefix required", i)
		}
	case FaultRateStorm:
		if f.Rate < 0 || f.Burst < 1 {
			return fmt.Errorf("netsim: fault %d (rate-storm): need rate >= 0 and burst >= 1, got rate=%v burst=%v",
				i, f.Rate, f.Burst)
		}
	case FaultAliasConfuse:
		if f.Addr != "" {
			if _, err := ipv4.ParseAddr(f.Addr); err != nil {
				return fmt.Errorf("netsim: fault %d (alias-confuse): bad addr %q: %v", i, f.Addr, err)
			}
		}
	}
	return nil
}

// FaultPlan is a composable, deterministic schedule of faults. All random
// draws a plan causes come from a stream seeded with Seed, independent of the
// network's own loss/IPID stream, so the same plan over the same probe
// sequence reproduces the same pathologies exactly.
type FaultPlan struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Validate checks the plan's internal consistency (window ordering,
// probability ranges, required scopes). Scope names are resolved against a
// concrete topology by InstallFaults.
func (p FaultPlan) Validate() error {
	for i, f := range p.Faults {
		if err := f.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ReadFaultPlan decodes a JSON fault plan (the schema documented in
// DESIGN.md) and validates it.
func ReadFaultPlan(r io.Reader) (FaultPlan, error) {
	var p FaultPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return FaultPlan{}, fmt.Errorf("netsim: fault plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return FaultPlan{}, err
	}
	return p, nil
}

// WriteFaultPlan encodes the plan as indented JSON.
func WriteFaultPlan(w io.Writer, p FaultPlan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// FaultStats counts the pathologies a plan actually inflicted on a run.
type FaultStats struct {
	FlapDrops      uint64 // packets dropped on a flapped subnet
	BlackholeDrops uint64 // packets swallowed by a blackholed router
	Corrupted      uint64 // replies with flipped bytes
	Truncated      uint64 // replies cut short
	Delayed        uint64 // replies arriving after the timeout (seen as silence)
	Duplicated     uint64 // replies given a duplicate delivery chance
	StormDrops     uint64 // replies suppressed by a rate-limit storm

	// Byzantine accounting: replies that lied rather than failed.
	LiarSpoofs  uint64 // replies sent with a rotating spoofed source
	AliasShares uint64 // replies collapsed onto the shared anycast source
	HiddenDrops uint64 // ICMP errors suppressed by a transparent hidden hop
	EchoMirrors uint64 // fabricated alive replies mirroring the probed address
}

// Total returns the number of individual fault events inflicted.
func (s FaultStats) Total() uint64 {
	return s.FlapDrops + s.BlackholeDrops + s.Corrupted + s.Truncated +
		s.Delayed + s.Duplicated + s.StormDrops +
		s.LiarSpoofs + s.AliasShares + s.HiddenDrops + s.EchoMirrors
}

// Byzantine returns the number of lying-responder events inflicted (spoofed,
// shared, suppressed, or fabricated replies).
func (s FaultStats) Byzantine() uint64 {
	return s.LiarSpoofs + s.AliasShares + s.HiddenDrops + s.EchoMirrors
}

// faultState is a fault plan compiled against one network: each fault armed
// with its scope resolved to topology objects, the strike counts, and a
// dedicated random stream. The stream is striped by responding router
// exactly like the network's own (see rngShard), so concurrent injections
// draw their pathologies without a shared lock; the counts advance
// atomically for the same reason.
type faultState struct {
	shards [numShards]rngShard
	counts [len(faultKinds)]atomic.Uint64
	// armed lists each kind's faults in plan order.
	armed [len(faultKinds)][]*armedFault
	// mangles are the corrupt and truncate faults in plan order, the order
	// mangleReply applies them in.
	mangles []*armedFault
	// ifacePool is the rotation space liar faults spoof from: every non-host
	// interface address in topology order. Built only when a liar is armed.
	ifacePool []ipv4.Addr
}

// armedFault is one fault of an installed plan with its scope resolved.
type armedFault struct {
	Fault
	router *Router   // a router-scoped kind's router; nil = every router
	subnet *Subnet   // a link flap's subnet
	shared ipv4.Addr // an alias-confuse fault's anycast source
	// buckets holds a rate storm's token bucket per router index, resolved
	// at install time so the injection path never mutates shared fault
	// structure; nil entries are routers outside the storm's scope.
	buckets []*TokenBucket
}

// holds reports whether a's scope covers router r and its window holds now.
func (a *armedFault) holds(r *Router, now uint64) bool {
	return (a.router == nil || a.router == r) && a.active(now)
}

// InstallFaults validates plan, resolves its scopes against the network's
// topology, and arms it. Installing a plan replaces any previous one and
// resets the fault statistics; install FaultPlan{} to disarm.
func (n *Network) InstallFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	fs := &faultState{}
	// The fault stream stays independent of the network's loss/IPID stream
	// (same perturbed base seed as always), striped per router.
	seedShards(&fs.shards, plan.Seed^0x66617531)
	armed := make([]armedFault, len(plan.Faults))
	for i, f := range plan.Faults {
		a := &armed[i]
		a.Fault = f
		var err error
		if faultKinds[f.Kind].router {
			if a.router, err = n.resolveRouter(i, f); err != nil {
				return err
			}
		}
		switch f.Kind {
		case FaultLinkFlap:
			// Resolve the CIDR against the topology's subnets.
			for _, s := range n.Topo.Subnets {
				if s.Prefix.String() == f.Subnet {
					a.subnet = s
					break
				}
			}
			if a.subnet == nil {
				return fmt.Errorf("netsim: fault %d (link-flap): no subnet %q in topology", i, f.Subnet)
			}
		case FaultRateStorm:
			a.buckets = make([]*TokenBucket, len(n.Topo.Routers))
			for _, tr := range n.Topo.Routers {
				if a.router == nil || a.router == tr {
					a.buckets[tr.idx] = NewTokenBucket(f.Rate, f.Burst)
				}
			}
		case FaultAliasConfuse:
			if a.shared, err = n.resolveSharedAddr(i, f); err != nil {
				return err
			}
		case FaultCorrupt, FaultTruncate:
			fs.mangles = append(fs.mangles, a)
		}
		fs.armed[f.Kind] = append(fs.armed[f.Kind], a)
	}
	if len(fs.armed[FaultLiar]) > 0 {
		// The spoof rotation space, in deterministic topology order.
		for _, r := range n.Topo.Routers {
			if r.IsHost {
				continue
			}
			for _, ifc := range r.Ifaces {
				fs.ifacePool = append(fs.ifacePool, ifc.Addr)
			}
		}
	}
	// Publish atomically: the injection path loads n.faults without a lock.
	// Install the plan before probing starts — replacing a plan mid-flight is
	// safe (in-flight injections finish against whichever state they loaded)
	// but makes the transition boundary nondeterministic.
	n.faults.Store(fs)
	return nil
}

func (n *Network) resolveRouter(i int, f Fault) (*Router, error) {
	if f.Router == "" {
		return nil, nil
	}
	for _, r := range n.Topo.Routers {
		if r.Name == f.Router {
			return r, nil
		}
	}
	return nil, fmt.Errorf("netsim: fault %d (%v): no router %q in topology", i, f.Kind, f.Router)
}

// resolveSharedAddr resolves the anycast source of an alias-confuse fault:
// the pinned Addr when set, otherwise the topology's lowest non-host
// interface address (deterministic whatever the topology's internal order).
func (n *Network) resolveSharedAddr(i int, f Fault) (ipv4.Addr, error) {
	if f.Addr != "" {
		a, err := ipv4.ParseAddr(f.Addr)
		if err != nil {
			return ipv4.Zero, fmt.Errorf("netsim: fault %d (alias-confuse): bad addr %q: %v", i, f.Addr, err)
		}
		return a, nil
	}
	var shared ipv4.Addr
	for _, r := range n.Topo.Routers {
		if r.IsHost {
			continue
		}
		for _, ifc := range r.Ifaces {
			if shared.IsZero() || ifc.Addr < shared {
				shared = ifc.Addr
			}
		}
	}
	if shared.IsZero() {
		return ipv4.Zero, fmt.Errorf("netsim: fault %d (alias-confuse): topology has no non-host interface", i)
	}
	return shared, nil
}

// FaultStats returns a snapshot of the fault accounting; zero when no plan is
// installed. The per-kind loads are individually atomic, so a snapshot taken
// while probing is in flight is consistent per counter.
func (n *Network) FaultStats() FaultStats {
	fs := n.faults.Load()
	if fs == nil {
		return FaultStats{}
	}
	c := &fs.counts
	return FaultStats{
		FlapDrops:      c[FaultLinkFlap].Load(),
		BlackholeDrops: c[FaultBlackhole].Load(),
		Corrupted:      c[FaultCorrupt].Load(),
		Truncated:      c[FaultTruncate].Load(),
		Delayed:        c[FaultDelay].Load(),
		Duplicated:     c[FaultDuplicate].Load(),
		StormDrops:     c[FaultRateStorm].Load(),
		LiarSpoofs:     c[FaultLiar].Load(),
		AliasShares:    c[FaultAliasConfuse].Load(),
		HiddenDrops:    c[FaultHiddenHop].Load(),
		EchoMirrors:    c[FaultEcho].Load(),
	}
}

// --- engine-side decisions ---
//
// These run on the lock-free injection path, each at the one instant its
// injection's tick returned. Scopes and windows read immutable compiled
// state; counts advance atomically; probabilistic draws lock only the
// responding router's stripe of the fault stream.

// strikes returns the first armed fault of kind, in plan order, whose scope
// covers r, whose window holds now and, for a probabilistic kind, whose draw
// from r's stripe falls below its Prob; nil when none does. It counts the
// strike.
func (n *Network) strikes(kind FaultKind, r *Router, now uint64) *armedFault {
	fs := n.faults.Load()
	if fs == nil {
		return nil
	}
	for _, a := range fs.armed[kind] {
		if a.holds(r, now) && (!faultKinds[kind].prob || fs.shards[shardIndex(r)].chance(a.Prob)) {
			n.count(fs, a, r, now)
			return a
		}
	}
	return nil
}

// count records one strike of a at r: the plan's per-kind count, the
// kind's fault counter and, with a flight recorder attached, a recorder
// entry stamped now.
func (n *Network) count(fs *faultState, a *armedFault, r *Router, now uint64) {
	fs.counts[a.Kind].Add(1)
	n.cFault[a.Kind].Inc()
	if !n.tel.HasRecorder() {
		return
	}
	var key, scope string
	switch {
	case a.subnet != nil:
		key, scope = " subnet=", a.subnet.Prefix.String()
	case faultKinds[a.Kind].router:
		key, scope = " router=", r.Name
	}
	n.tel.RecordAt(now, "fault", faultKinds[a.Kind].event+key+scope)
}

// subnetDown reports whether s is flapped at now.
func (n *Network) subnetDown(s *Subnet, now uint64) bool {
	fs := n.faults.Load()
	if fs == nil || s == nil {
		return false
	}
	for _, a := range fs.armed[FaultLinkFlap] {
		if a.subnet == s && a.active(now) {
			n.count(fs, a, nil, now)
			return true
		}
	}
	return false
}

// stormAllows consults every rate-storm bucket scoped to r and active at
// now; it reports false when one suppresses the reply. The buckets were
// resolved per router at install time and synchronize internally.
func (n *Network) stormAllows(r *Router, now uint64) bool {
	fs := n.faults.Load()
	if fs == nil {
		return true
	}
	for _, a := range fs.armed[FaultRateStorm] {
		if a.holds(r, now) && !a.buckets[r.idx].Allow(now) {
			n.count(fs, a, r, now)
			return false
		}
	}
	return true
}

// churnSalt perturbs the ECMP hash while a churn fault is active: choices
// stay stable within one churnPeriod epoch and reshuffle at epoch boundaries.
func (n *Network) churnSalt(now uint64) uint64 {
	fs := n.faults.Load()
	if fs == nil {
		return 0
	}
	for _, a := range fs.armed[FaultChurn] {
		if a.active(now) {
			return (now/churnPeriod + 1) * 0x9e3779b97f4a7c15
		}
	}
	return 0
}

// mangleReply applies corruption and truncation faults to a reply encoded
// from router r. It may return the bytes modified in place, a shorter slice,
// or nil when truncation consumed the whole datagram.
func (n *Network) mangleReply(raw []byte, r *Router, now uint64) []byte {
	fs := n.faults.Load()
	if fs == nil || len(raw) == 0 {
		return raw
	}
	sh := &fs.shards[shardIndex(r)]
	for _, a := range fs.mangles {
		if !a.active(now) || !sh.chance(a.Prob) {
			continue
		}
		n.count(fs, a, r, now)
		if a.Kind == FaultTruncate {
			if raw = raw[:sh.intn(len(raw))]; len(raw) == 0 {
				return nil
			}
			continue
		}
		// Flip 1–3 bytes with non-zero masks; checksums are left stale, so
		// the prober's decoder rejects the reply.
		flips := 1 + sh.intn(3)
		for j := 0; j < flips; j++ {
			raw[sh.intn(len(raw))] ^= byte(1 + sh.intn(255))
		}
	}
	return raw
}

// spoofSource applies the lying-responder faults (alias-confuse, then liar)
// to the source address r is about to answer an indirect probe with,
// returning the possibly rewritten address. Alias-confuse wins when both are
// armed: the anycast collapse is deterministic, the liar draw is not.
func (n *Network) spoofSource(r *Router, src ipv4.Addr, now uint64) ipv4.Addr {
	if a := n.strikes(FaultAliasConfuse, r, now); a != nil {
		return a.shared
	}
	if fs := n.faults.Load(); fs != nil && len(fs.ifacePool) > 0 && n.strikes(FaultLiar, r, now) != nil {
		return fs.ifacePool[fs.shards[shardIndex(r)].intn(len(fs.ifacePool))]
	}
	return src
}

// RandomFaultPlan generates a deterministic, seed-dependent fault plan over
// t: a handful of scheduled faults whose scopes are drawn from the
// topology's routers and core subnets. The chaos harness feeds tracenet
// sessions with these plans to exercise every fault path.
func RandomFaultPlan(t *Topology, seed int64) FaultPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x63616f73))
	var routers []*Router
	for _, r := range t.Routers {
		if !r.IsHost {
			routers = append(routers, r)
		}
	}
	subnets := t.CoreSubnets()

	plan := FaultPlan{Seed: seed}
	window := func() (uint64, uint64) {
		from := uint64(rng.Intn(4000))
		return from, from + 200 + uint64(rng.Intn(3000))
	}
	nFaults := 2 + rng.Intn(4)
	for i := 0; i < nFaults; i++ {
		from, until := window()
		switch rng.Intn(8) {
		case 0:
			if len(subnets) == 0 {
				continue
			}
			s := subnets[rng.Intn(len(subnets))]
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultLinkFlap, From: from, Until: until, Subnet: s.Prefix.String(),
			})
		case 1:
			if len(routers) == 0 {
				continue
			}
			r := routers[rng.Intn(len(routers))]
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultBlackhole, From: from, Until: until, Router: r.Name,
			})
		case 2:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultCorrupt, From: from, Until: until, Prob: 0.05 + 0.4*rng.Float64(),
			})
		case 3:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultTruncate, From: from, Until: until, Prob: 0.05 + 0.3*rng.Float64(),
			})
		case 4:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultDelay, From: from, Until: until, Prob: 0.05 + 0.3*rng.Float64(),
			})
		case 5:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultDuplicate, From: from, Until: until, Prob: 0.1 + 0.4*rng.Float64(),
			})
		case 6:
			f := Fault{Kind: FaultRateStorm, From: from, Until: until,
				Rate: 0.02 + 0.1*rng.Float64(), Burst: float64(1 + rng.Intn(4))}
			if len(routers) > 0 && rng.Intn(2) == 0 {
				f.Router = routers[rng.Intn(len(routers))].Name
			}
			plan.Faults = append(plan.Faults, f)
		case 7:
			plan.Faults = append(plan.Faults, Fault{Kind: FaultChurn, From: from, Until: until})
		}
	}
	// Every generated plan must validate by construction.
	if err := plan.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: RandomFaultPlan produced an invalid plan: %v", err))
	}
	return plan
}

// RandomAdversarialPlan generates a deterministic, seed-dependent plan of
// byzantine faults over t. It is a separate generator from RandomFaultPlan —
// extending that one's kind switch would silently reshuffle every committed
// benign plan — and uses its own seed perturbation so the two streams never
// correlate. Adversarial faults are mostly always-on: the interesting regime
// is sustained lying, not a transient.
func RandomAdversarialPlan(t *Topology, seed int64) FaultPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x61647673))
	var routers []*Router
	for _, r := range t.Routers {
		if !r.IsHost {
			routers = append(routers, r)
		}
	}

	plan := FaultPlan{Seed: seed}
	scope := func() string {
		// Half the faults hit every router; the rest pick one victim.
		if len(routers) == 0 || rng.Intn(2) == 0 {
			return ""
		}
		return routers[rng.Intn(len(routers))].Name
	}
	nFaults := 1 + rng.Intn(3)
	for i := 0; i < nFaults; i++ {
		switch rng.Intn(4) {
		case 0:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultLiar, Router: scope(), Prob: 0.2 + 0.5*rng.Float64(),
			})
		case 1:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultAliasConfuse, Router: scope(),
			})
		case 2:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultHiddenHop, Router: scope(),
			})
		case 3:
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultEcho, Router: scope(), Prob: 0.2 + 0.4*rng.Float64(),
			})
		}
	}
	if err := plan.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: RandomAdversarialPlan produced an invalid plan: %v", err))
	}
	return plan
}
