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

// Adversarial reports whether the kind is byzantine (the network lies) rather
// than benign (the network loses, mangles, or delays).
func (k FaultKind) Adversarial() bool {
	switch k {
	case FaultLiar, FaultAliasConfuse, FaultHiddenHop, FaultEcho:
		return true
	}
	return false
}

var faultKindNames = map[FaultKind]string{
	FaultLinkFlap:     "link-flap",
	FaultBlackhole:    "blackhole",
	FaultCorrupt:      "corrupt",
	FaultTruncate:     "truncate",
	FaultDelay:        "delay",
	FaultDuplicate:    "duplicate",
	FaultRateStorm:    "rate-storm",
	FaultChurn:        "churn",
	FaultLiar:         "liar",
	FaultAliasConfuse: "alias-confuse",
	FaultHiddenHop:    "hidden-hop",
	FaultEcho:         "echo",
}

// FaultKinds lists every known kind in enum order, for consumers that need a
// deterministic iteration (telemetry registration, documentation tables).
var FaultKinds = []FaultKind{
	FaultLinkFlap, FaultBlackhole, FaultCorrupt, FaultTruncate, FaultDelay,
	FaultDuplicate, FaultRateStorm, FaultChurn,
	FaultLiar, FaultAliasConfuse, FaultHiddenHop, FaultEcho,
}

func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// MarshalJSON renders the kind as its stable string name.
func (k FaultKind) MarshalJSON() ([]byte, error) {
	s, ok := faultKindNames[k]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown fault kind %d", uint8(k))
	}
	return json.Marshal(s)
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
	for kind, name := range faultKindNames {
		if name == s {
			*k = kind
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
// leaves the fault active forever.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// From and Until bound the active window on the virtual clock.
	From  uint64 `json:"from,omitempty"`
	Until uint64 `json:"until,omitempty"`
	// Router scopes blackholes and rate storms to one named router; empty
	// means every router.
	Router string `json:"router,omitempty"`
	// Subnet scopes a link flap to one subnet by CIDR prefix (required for
	// FaultLinkFlap, ignored otherwise).
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
	if _, ok := faultKindNames[f.Kind]; !ok {
		return fmt.Errorf("netsim: fault %d: %w %d", i, ErrUnknownFaultKind, uint8(f.Kind))
	}
	if f.Until != 0 && f.Until <= f.From {
		return fmt.Errorf("netsim: fault %d (%v): empty window [%d,%d)", i, f.Kind, f.From, f.Until)
	}
	switch f.Kind {
	case FaultCorrupt, FaultTruncate, FaultDelay, FaultDuplicate, FaultLiar, FaultEcho:
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("netsim: fault %d (%v): prob %v outside (0,1]", i, f.Kind, f.Prob)
		}
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

// faultCounters is the live, atomically-advanced mirror of FaultStats. It is
// a distinct type so the exported snapshot can be read plainly: these fields
// are only ever touched through sync/atomic, FaultStats fields never are.
type faultCounters struct {
	FlapDrops      uint64
	BlackholeDrops uint64
	Corrupted      uint64
	Truncated      uint64
	Delayed        uint64
	Duplicated     uint64
	StormDrops     uint64
	LiarSpoofs     uint64
	AliasShares    uint64
	HiddenDrops    uint64
	EchoMirrors    uint64
}

// faultState is a fault plan compiled against one network: scope names
// resolved to topology objects, with a dedicated random stream. The stream is
// striped by responding router exactly like the network's own (see rngShard),
// so concurrent injections draw their pathologies without a shared lock; the
// stats fields are advanced atomically for the same reason.
type faultState struct {
	plan   FaultPlan
	shards [numShards]rngShard
	stats  faultCounters
	flaps  []scopedFault[*Subnet]
	holes  []scopedFault[*Router] // nil target = every router
	storms []stormFault
	churns []Fault
	// mangles are the per-reply probabilistic faults, applied in plan order.
	mangles []Fault

	// Byzantine state: lying responders, resolved against the topology.
	liars   []scopedFault[*Router] // nil target = every router
	aliases []aliasFault
	hidden  []scopedFault[*Router]
	echoes  []scopedFault[*Router]
	// ifacePool is the rotation space liar faults spoof from: every non-host
	// interface address in topology order. Built only when a liar is armed.
	ifacePool []ipv4.Addr
}

type scopedFault[T any] struct {
	Fault
	target T
}

type stormFault struct {
	Fault
	target *Router // nil = every router
	// buckets holds the override token bucket per router index, pre-resolved
	// at install time so the injection path never mutates shared fault
	// structure; nil entries are routers outside the storm's scope.
	buckets []*TokenBucket
}

type aliasFault struct {
	Fault
	target *Router   // nil = every router
	shared ipv4.Addr // the anycast source every scoped reply collapses onto
}

// InstallFaults validates plan, resolves its scopes against the network's
// topology, and arms it. Installing a plan replaces any previous one and
// resets the fault statistics; install FaultPlan{} to disarm.
func (n *Network) InstallFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	fs := &faultState{plan: plan}
	// The fault stream stays independent of the network's loss/IPID stream
	// (same perturbed base seed as always), striped per router.
	seedShards(&fs.shards, plan.Seed^0x66617531)
	for i, f := range plan.Faults {
		switch f.Kind {
		case FaultLinkFlap:
			// Resolve the CIDR against the topology's subnets.
			var sub *Subnet
			for _, s := range n.Topo.Subnets {
				if s.Prefix.String() == f.Subnet {
					sub = s
					break
				}
			}
			if sub == nil {
				return fmt.Errorf("netsim: fault %d (link-flap): no subnet %q in topology", i, f.Subnet)
			}
			fs.flaps = append(fs.flaps, scopedFault[*Subnet]{f, sub})
		case FaultBlackhole:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			fs.holes = append(fs.holes, scopedFault[*Router]{f, r})
		case FaultRateStorm:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			buckets := make([]*TokenBucket, len(n.Topo.Routers))
			for _, tr := range n.Topo.Routers {
				if r == nil || r == tr {
					buckets[tr.idx] = NewTokenBucket(f.Rate, f.Burst)
				}
			}
			fs.storms = append(fs.storms, stormFault{f, r, buckets})
		case FaultChurn:
			fs.churns = append(fs.churns, f)
		case FaultLiar:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			fs.liars = append(fs.liars, scopedFault[*Router]{f, r})
		case FaultAliasConfuse:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			shared, err := n.resolveSharedAddr(i, f)
			if err != nil {
				return err
			}
			fs.aliases = append(fs.aliases, aliasFault{f, r, shared})
		case FaultHiddenHop:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			fs.hidden = append(fs.hidden, scopedFault[*Router]{f, r})
		case FaultEcho:
			r, err := n.resolveRouter(i, f)
			if err != nil {
				return err
			}
			fs.echoes = append(fs.echoes, scopedFault[*Router]{f, r})
		default:
			fs.mangles = append(fs.mangles, f)
		}
	}
	if len(fs.liars) > 0 {
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
// installed. The per-field loads are individually atomic, so a snapshot taken
// while probing is in flight is consistent per counter.
func (n *Network) FaultStats() FaultStats {
	fs := n.faults.Load()
	if fs == nil {
		return FaultStats{}
	}
	s := &fs.stats
	return FaultStats{
		FlapDrops:      atomic.LoadUint64(&s.FlapDrops),
		BlackholeDrops: atomic.LoadUint64(&s.BlackholeDrops),
		Corrupted:      atomic.LoadUint64(&s.Corrupted),
		Truncated:      atomic.LoadUint64(&s.Truncated),
		Delayed:        atomic.LoadUint64(&s.Delayed),
		Duplicated:     atomic.LoadUint64(&s.Duplicated),
		StormDrops:     atomic.LoadUint64(&s.StormDrops),
		LiarSpoofs:     atomic.LoadUint64(&s.LiarSpoofs),
		AliasShares:    atomic.LoadUint64(&s.AliasShares),
		HiddenDrops:    atomic.LoadUint64(&s.HiddenDrops),
		EchoMirrors:    atomic.LoadUint64(&s.EchoMirrors),
	}
}

// --- engine-side queries ---
//
// These run on the lock-free injection path. Fault windows and scope checks
// read immutable compiled state; statistics advance atomically; probabilistic
// draws lock only the responding router's stripe of the fault stream.

// subnetDown reports whether s is currently flapped.
func (n *Network) subnetDown(s *Subnet) bool {
	fs := n.faults.Load()
	if fs == nil || s == nil {
		return false
	}
	for i := range fs.flaps {
		f := &fs.flaps[i]
		if f.target == s && f.active(n.clock.Load()) {
			atomic.AddUint64(&fs.stats.FlapDrops, 1)
			n.observeFault(FaultLinkFlap, "link-flap drop subnet="+s.Prefix.String())
			return true
		}
	}
	return false
}

// blackholed reports whether r currently swallows every packet.
func (n *Network) blackholed(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return false
	}
	for i := range fs.holes {
		f := &fs.holes[i]
		if (f.target == nil || f.target == r) && f.active(n.clock.Load()) {
			atomic.AddUint64(&fs.stats.BlackholeDrops, 1)
			n.observeFault(FaultBlackhole, "blackhole drop router="+r.Name)
			return true
		}
	}
	return false
}

// stormAllows consults any active rate-storm bucket scoped to r; it reports
// false when a storm suppresses the reply. The buckets were pre-resolved per
// router at install time and synchronize internally.
func (n *Network) stormAllows(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return true
	}
	for i := range fs.storms {
		st := &fs.storms[i]
		if st.target != nil && st.target != r {
			continue
		}
		if !st.active(n.clock.Load()) {
			continue
		}
		if b := st.buckets[r.idx]; b != nil && !b.Allow(n.clock.Load()) {
			atomic.AddUint64(&fs.stats.StormDrops, 1)
			n.observeFault(FaultRateStorm, "rate-storm drop router="+r.Name)
			return false
		}
	}
	return true
}

// churnSalt perturbs the ECMP hash while a churn fault is active: choices
// stay stable within one churnPeriod epoch and reshuffle at epoch boundaries.
func (n *Network) churnSalt() uint64 {
	fs := n.faults.Load()
	if fs == nil {
		return 0
	}
	for i := range fs.churns {
		if fs.churns[i].active(n.clock.Load()) {
			return (n.clock.Load()/churnPeriod + 1) * 0x9e3779b97f4a7c15
		}
	}
	return 0
}

// replyDelayed reports whether an otherwise-delivered reply from r misses the
// prober's timeout window.
func (n *Network) replyDelayed(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return false
	}
	for i := range fs.mangles {
		f := &fs.mangles[i]
		if f.Kind == FaultDelay && f.active(n.clock.Load()) && fs.shards[shardIndex(r)].chance(f.Prob) {
			atomic.AddUint64(&fs.stats.Delayed, 1)
			n.observeFault(FaultDelay, "delayed reply (seen as silence)")
			return true
		}
	}
	return false
}

// duplicateChance reports whether a reply from r about to be lost gets a
// second delivery chance from a duplication fault.
func (n *Network) duplicateChance(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return false
	}
	for i := range fs.mangles {
		f := &fs.mangles[i]
		if f.Kind == FaultDuplicate && f.active(n.clock.Load()) && fs.shards[shardIndex(r)].chance(f.Prob) {
			atomic.AddUint64(&fs.stats.Duplicated, 1)
			n.observeFault(FaultDuplicate, "duplicated reply")
			return true
		}
	}
	return false
}

// mangleReply applies corruption and truncation faults to a reply encoded
// from router r. It may return the bytes modified in place, a shorter slice,
// or nil when truncation consumed the whole datagram.
func (n *Network) mangleReply(raw []byte, r *Router) []byte {
	fs := n.faults.Load()
	if fs == nil || len(raw) == 0 {
		return raw
	}
	sh := &fs.shards[shardIndex(r)]
	for i := range fs.mangles {
		f := &fs.mangles[i]
		if !f.active(n.clock.Load()) {
			continue
		}
		switch f.Kind {
		case FaultCorrupt:
			if sh.chance(f.Prob) {
				// Flip 1–3 bytes with non-zero masks; checksums are left
				// stale, so the prober's decoder rejects the reply.
				flips := 1 + sh.intn(3)
				for j := 0; j < flips; j++ {
					raw[sh.intn(len(raw))] ^= byte(1 + sh.intn(255))
				}
				atomic.AddUint64(&fs.stats.Corrupted, 1)
				n.observeFault(FaultCorrupt, "corrupted reply")
			}
		case FaultTruncate:
			if sh.chance(f.Prob) {
				raw = raw[:sh.intn(len(raw))]
				atomic.AddUint64(&fs.stats.Truncated, 1)
				n.observeFault(FaultTruncate, "truncated reply")
				if len(raw) == 0 {
					return nil
				}
			}
		}
	}
	return raw
}

// hiddenHop reports whether r currently forwards transparently: it keeps
// decrementing TTL and forwarding, but generates no ICMP of any kind while
// the fault is active. Called only at a point where r was about to generate
// a reply — so every true return is one suppressed answer.
func (n *Network) hiddenHop(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return false
	}
	for i := range fs.hidden {
		f := &fs.hidden[i]
		if (f.target == nil || f.target == r) && f.active(n.clock.Load()) {
			atomic.AddUint64(&fs.stats.HiddenDrops, 1)
			n.observeFault(FaultHiddenHop, "hidden-hop suppressed reply router="+r.Name)
			return true
		}
	}
	return false
}

// spoofSource applies the lying-responder faults (alias-confuse, then liar)
// to the source address r is about to answer an indirect probe with,
// returning the possibly rewritten address. Alias-confuse wins when both are
// armed: the anycast collapse is deterministic, the liar draw is not.
func (n *Network) spoofSource(r *Router, src ipv4.Addr) ipv4.Addr {
	fs := n.faults.Load()
	if fs == nil {
		return src
	}
	clock := n.clock.Load()
	for i := range fs.aliases {
		f := &fs.aliases[i]
		if (f.target == nil || f.target == r) && f.active(clock) {
			atomic.AddUint64(&fs.stats.AliasShares, 1)
			n.observeFault(FaultAliasConfuse, "alias-confuse shared source router="+r.Name)
			return f.shared
		}
	}
	for i := range fs.liars {
		f := &fs.liars[i]
		if (f.target == nil || f.target == r) && f.active(clock) &&
			len(fs.ifacePool) > 0 && fs.shards[shardIndex(r)].chance(f.Prob) {
			spoofed := fs.ifacePool[fs.shards[shardIndex(r)].intn(len(fs.ifacePool))]
			atomic.AddUint64(&fs.stats.LiarSpoofs, 1)
			n.observeFault(FaultLiar, "liar spoofed source router="+r.Name)
			return spoofed
		}
	}
	return src
}

// echoMirrors reports whether r, about to answer a probe with an ICMP error,
// instead fabricates an alive reply mirroring the probe's destination back as
// its source.
func (n *Network) echoMirrors(r *Router) bool {
	fs := n.faults.Load()
	if fs == nil {
		return false
	}
	for i := range fs.echoes {
		f := &fs.echoes[i]
		if (f.target == nil || f.target == r) && f.active(n.clock.Load()) &&
			fs.shards[shardIndex(r)].chance(f.Prob) {
			atomic.AddUint64(&fs.stats.EchoMirrors, 1)
			n.observeFault(FaultEcho, "echo fabricated alive reply router="+r.Name)
			return true
		}
	}
	return false
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
