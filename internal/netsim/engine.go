package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
	"tracenet/internal/telemetry"
	"tracenet/internal/wire"
)

// LoadBalanceMode selects how equal-cost candidates are chosen.
type LoadBalanceMode uint8

const (
	// PerFlow hashes the flow identifier only: probes of one flow always take
	// the same path (the common router configuration).
	PerFlow LoadBalanceMode = iota
	// PerPacket additionally hashes the virtual clock: consecutive probes of
	// the same flow may take different equal-cost paths, the worst case for
	// path stability (§3.7).
	PerPacket
)

// maxHops bounds a forwarding walk, like a default initial TTL.
const maxHops = 64

// Config tunes a simulated network.
type Config struct {
	// Mode selects per-flow or per-packet load balancing. Default PerFlow.
	Mode LoadBalanceMode
	// LossRate is the probability in [0,1] that a generated reply is lost
	// (1 silences the network completely).
	LossRate float64
	// Seed makes loss and per-packet balancing deterministic.
	Seed int64
}

// validate rejects out-of-range configuration with a descriptive error.
func (c Config) validate() error {
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("netsim: Config.LossRate %v outside [0,1]", c.LossRate)
	}
	return nil
}

// numShards stripes the network's mutable random state by responding router,
// so concurrent injections that end at different routers draw without
// contending. 16 stripes keep contention negligible up to the parallelism the
// campaign engine uses while costing one cache line each.
const (
	numShards = 16
	shardMask = numShards - 1
)

// shardIndex maps a responding router onto its random-stream stripe. A nil
// responder (defensive; every generated reply has one) uses stripe 0.
func shardIndex(r *Router) int {
	if r == nil {
		return 0
	}
	return r.idx & shardMask
}

// rngShard is one stripe of a seeded random stream: a dedicated generator
// behind its own lock, padded out to a cache line so neighbouring stripes do
// not false-share. Each draw locks only its stripe, so routers in different
// stripes never serialize against each other. The generator is seeded on the
// stripe's first draw: seeding costs more than most traces, and a clean
// network never draws at all. A stripe's draw sequence is the same however
// late it starts.
type rngShard struct {
	seed int64 // fixed before the owning network or fault plan is shared
	mu   sync.Mutex
	rng  *rand.Rand // nil until the first draw
	_    [40]byte
}

// gen returns the stripe's generator, seeding it on the first draw. Called
// with s.mu held.
func (s *rngShard) gen() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// chance draws one uniform float and reports whether it fell below p.
func (s *rngShard) chance(p float64) bool {
	s.mu.Lock()
	ok := s.gen().Float64() < p
	s.mu.Unlock()
	return ok
}

// intn draws one uniform int in [0, n).
func (s *rngShard) intn(n int) int {
	s.mu.Lock()
	v := s.gen().Intn(n)
	s.mu.Unlock()
	return v
}

// seedShards fixes each stripe's seed from the stream's base seed. The
// multiplier is the 64-bit golden-ratio constant, so stripe streams are
// decorrelated from each other and from the base seed itself.
func seedShards(shards *[numShards]rngShard, base int64) {
	for i := range shards {
		shards[i].seed = base ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)
	}
}

// Network is a runnable simulation over an immutable Topology. Any number of
// networks may share one topology: each owns its clock, counters, IP-ID
// counters, random streams and fault plan, and they share the topology's
// lazily built routes.
//
// A Network is safe for concurrent use by multiple vantage Ports, and every
// injection runs without a network-wide lock: the topology and its published
// routes are immutable, counters and the clock are atomic, and the mutable
// remainder — the seeded random streams and rate-limit buckets — is striped
// per responding router (see rngShard) or locked per bucket. A configuration
// with loss, faults, or rate limits therefore scales across cores exactly
// like a clean one; only probes answered by the same router contend, and
// only when they actually draw randomness or tokens.
type Network struct {
	Topo *Topology

	// Probes counts every injected packet; Replies counts non-silent answers.
	// Both are maintained atomically; use Counters for a consistently-ordered
	// snapshot while probing is in flight.
	Probes  uint64
	Replies uint64

	// cfg is immutable after construction; faults is replaced wholesale by
	// InstallFaults; clock is atomic.
	cfg    Config
	faults atomic.Pointer[faultState]
	clock  atomic.Uint64

	// ipid holds each router's IP-ID counter, indexed by router idx and
	// widened to uint32 so it can be advanced atomically (the lock-free
	// injection path increments it from concurrent probers); replies carry
	// its low 16 bits.
	ipid []uint32

	// shards stripe the network's own seeded stream (loss, per-router reply
	// loss, random IP-IDs) by responding router. The fault plan's independent
	// stream is striped the same way inside faultState.
	shards [numShards]rngShard

	// Telemetry mirror of the engine counters; handles are resolved once in
	// SetTelemetry and nil-safe, so the uninstrumented path stays free.
	tel      *telemetry.Telemetry
	cProbes  *telemetry.Counter
	cReplies *telemetry.Counter
	gClock   *telemetry.Gauge
	cFault   [12]*telemetry.Counter // indexed by FaultKind

	// mu guards configuration (telemetry attachment). The injection path
	// never takes it: SetTelemetry must be called before probing starts.
	mu sync.Mutex
}

// New creates a network simulation over topo. It panics if cfg is out of
// range (LossRate must be in [0,1)); use NewChecked to handle the error.
func New(topo *Topology, cfg Config) *Network {
	n, err := NewChecked(topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// NewChecked is New returning configuration errors instead of panicking.
func NewChecked(topo *Topology, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Spread the per-router IP-ID counters so distinct routers' sequences
	// don't coincide by construction.
	ipid := make([]uint32, len(topo.Routers))
	for i := range ipid {
		ipid[i] = uint32(uint16(i * 1021))
	}
	n := &Network{Topo: topo, cfg: cfg, ipid: ipid}
	seedShards(&n.shards, cfg.Seed)
	return n, nil
}

// nextIPID returns router r's next IP identifier. Replies from all of a
// router's interfaces share one counter — the signal the Ally technique uses
// to group interfaces into routers. Atomic: concurrent probers interleave
// draws but the per-router sequence stays strictly increasing (mod 2^16).
func (n *Network) nextIPID(r *Router) uint16 {
	return uint16(atomic.AddUint32(&n.ipid[r.idx], 1))
}

// Counters returns a race-free snapshot of the probe/reply counters. Replies
// is loaded first, so the snapshot always satisfies replies <= probes even
// while injections are in flight.
func (n *Network) Counters() (probes, replies uint64) {
	replies = atomic.LoadUint64(&n.Replies)
	probes = atomic.LoadUint64(&n.Probes)
	return probes, replies
}

// Ticks returns the current virtual clock, making the Network the natural
// telemetry.Clock for a simulated run: every telemetry timestamp is then an
// injection tick, which is what makes same-seed telemetry byte-identical.
func (n *Network) Ticks() uint64 {
	return n.clock.Load()
}

// SetTelemetry attaches (or, with nil, detaches) the run's telemetry layer,
// resolving the engine's metric handles once so the injection path never
// touches the registry. Call it before probing starts: the injection path
// reads the handles without synchronization. Inside the engine everything
// records through RecordAt with the current clock — never through methods
// that re-read the clock via Ticks.
func (n *Network) SetTelemetry(tel *telemetry.Telemetry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tel = tel
	n.cProbes = tel.Counter("tracenet_netsim_probes_total")
	n.cReplies = tel.Counter("tracenet_netsim_replies_total")
	n.gClock = tel.Gauge("tracenet_netsim_clock_ticks")
	for _, k := range FaultKinds {
		if k == FaultChurn {
			// Churn perturbs routing choices rather than inflicting countable
			// per-reply events; it has no fault counter.
			continue
		}
		n.cFault[k] = tel.Counter("tracenet_netsim_fault_events_total", "kind", k.String())
	}
}

// observeFault mirrors one inflicted fault onto the telemetry layer: the
// per-kind fault counter and a flight-recorder entry at the current clock.
// Counter and recorder are internally synchronized, so fault sites call this
// without holding any engine lock.
func (n *Network) observeFault(kind FaultKind, msg string) {
	if n.tel == nil {
		return
	}
	n.cFault[kind].Inc()
	n.tel.RecordAt(n.clock.Load(), "fault", msg)
}

// exchangeScratch owns every piece of transient storage one injection needs:
// the decode scratch for the probe, the quote buffer an ICMP error embeds,
// the reply packet and its transport struct, and the reply's options copy.
// Exchanges borrow a scratch from scratchPool, so the steady-state injection
// path allocates nothing — the reply is synthesized into the scratch and
// encoded into the caller's buffer before the scratch is returned.
type exchangeScratch struct {
	dec   wire.DecodeScratch
	quote []byte // re-encoded probe bytes backing ICMP error quotes
	opts  []byte // reply's copy of accumulated IP options (echo replies)
	reply wire.Packet
	icmp  wire.ICMP
	tcp   wire.TCP
}

var scratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// quoteBytes materializes the in-flight packet into the scratch quote buffer,
// so an ICMP error quote reflects the decremented TTL and any record-route
// stamps accumulated on the way. An optionless packet can only differ from its
// as-sent bytes in the TTL, so the fast path copies the header plus eight
// payload bytes (all an RFC 792 quote embeds) and patches TTL and header
// checksum in place (RFC 1624) — identical output to a re-encode at a
// fraction of the cost. Packets carrying options re-encode in full; encode
// failure falls back to the as-sent bytes (unreachable for packets that
// decoded).
func (x *exchangeScratch) quoteBytes(pkt *wire.Packet, raw []byte) []byte {
	if len(pkt.IP.Options) == 0 && len(raw) >= wire.HeaderLen && int(raw[0]&0x0f)*4 == wire.HeaderLen {
		n := wire.HeaderLen + 8
		if len(raw) < n {
			n = len(raw)
		}
		q := append(x.quote[:0], raw[:n]...)
		if q[8] != pkt.IP.TTL {
			old := uint16(q[8])<<8 | uint16(q[9])
			q[8] = pkt.IP.TTL
			wire.CsumUpdate(q, 10, old, uint16(q[8])<<8|uint16(q[9]))
		}
		x.quote = q
		return q
	}
	q, err := pkt.AppendEncode(x.quote[:0])
	if err != nil {
		return raw
	}
	x.quote = q
	return q
}

// echoReply synthesizes the echo reply to a decoded echo request into the
// scratch. IP options (such as an accumulated record route) are copied into
// scratch-owned storage, as ping -R relies on.
func (x *exchangeScratch) echoReply(replyFrom ipv4.Addr, req *wire.Packet) *wire.Packet {
	var opts []byte
	if len(req.IP.Options) > 0 {
		x.opts = append(x.opts[:0], req.IP.Options...)
		opts = x.opts
	}
	x.icmp = wire.ICMP{Type: wire.ICMPEchoReply, ID: req.ICMP.ID, Seq: req.ICMP.Seq}
	x.reply = wire.Packet{
		IP:   wire.IPHeader{TTL: 64, Src: replyFrom, Dst: req.IP.Src, Options: opts},
		ICMP: &x.icmp,
	}
	return &x.reply
}

// icmpError synthesizes the ICMP error a router at routerAddr sends for the
// in-flight probe pkt: time-exceeded or destination/port unreachable. Per
// RFC 792 the error embeds the original IP header (including any options)
// plus its first 8 payload bytes; the quote is re-encoded into the scratch,
// and the error is addressed to the decoded probe's source directly — no
// quoted re-parse, unlike the allocating wire.NewICMPError constructor.
func (x *exchangeScratch) icmpError(routerAddr ipv4.Addr, icmpType, code uint8, pkt *wire.Packet, raw []byte) *wire.Packet {
	quote := x.quoteBytes(pkt, raw)
	quoteLen := wire.HeaderLen + 8
	if len(quote) >= 1 {
		if ihl := int(quote[0]&0x0f) * 4; ihl >= wire.HeaderLen {
			quoteLen = ihl + 8
		}
	}
	if len(quote) > quoteLen {
		quote = quote[:quoteLen]
	}
	x.icmp = wire.ICMP{Type: icmpType, Code: code, Payload: quote}
	x.reply = wire.Packet{
		IP:   wire.IPHeader{TTL: 64, Src: routerAddr, Dst: pkt.IP.Src},
		ICMP: &x.icmp,
	}
	return &x.reply
}

// tcpReset synthesizes the RST|ACK a live host returns for an unsolicited
// ACK probe into the scratch.
func (x *exchangeScratch) tcpReset(replyFrom ipv4.Addr, req *wire.Packet) *wire.Packet {
	x.tcp = wire.TCP{
		SrcPort: req.TCP.DstPort,
		DstPort: req.TCP.SrcPort,
		Seq:     req.TCP.Ack,
		Ack:     req.TCP.Seq + 1,
		Flags:   wire.TCPFlagRST | wire.TCPFlagACK,
	}
	x.reply = wire.Packet{
		IP:  wire.IPHeader{TTL: 64, Src: replyFrom, Dst: req.IP.Src},
		TCP: &x.tcp,
	}
	return &x.reply
}

// fabricateAlive builds the lie an echo fault tells: a reply of the
// protocol-appropriate "destination alive" shape — echo reply, port
// unreachable, or TCP reset — whose source mirrors the probe's destination,
// indistinguishable on the wire from a genuine endpoint answer. Returns nil
// for probe shapes that have no alive form, letting the caller fall through
// to the honest reply.
func (x *exchangeScratch) fabricateAlive(pkt *wire.Packet, raw []byte) *wire.Packet {
	dst := pkt.IP.Dst
	switch {
	case pkt.ICMP != nil && pkt.ICMP.Type == wire.ICMPEchoRequest:
		return x.echoReply(dst, pkt)
	case pkt.UDP != nil:
		return x.icmpError(dst, wire.ICMPDestUnreach, wire.CodePortUnreach, pkt, raw)
	case pkt.TCP != nil:
		return x.tcpReset(dst, pkt)
	}
	return nil
}

// Port binds a vantage host to the network, exposing the probe.Transport
// surface: encoded probe in, encoded reply (or nil for silence) out. Ports
// are stateless; one Port may be shared by concurrent probers, or each
// prober may hold its own Port on the same Network.
type Port struct {
	net  *Network
	host *Router
}

// PortFor returns an injection port for the named host.
func (n *Network) PortFor(hostName string) (*Port, error) {
	h := n.Topo.HostByName(hostName)
	if h == nil {
		return nil, fmt.Errorf("netsim: no host %q", hostName)
	}
	return &Port{net: n, host: h}, nil
}

// Host returns the bound vantage host.
func (p *Port) Host() *Router { return p.host }

// LocalAddr returns the vantage host's source address.
func (p *Port) LocalAddr() ipv4.Addr { return p.host.Addr() }

// Exchange injects one encoded probe sourced at the bound host and returns
// the encoded reply, or (nil, nil) when the network stays silent. When a
// fault plan is installed the reply bytes may come back corrupted or
// truncated, exactly as a mangled datagram would off a raw socket.
// Safe for concurrent use.
func (p *Port) Exchange(raw []byte) ([]byte, error) {
	return p.ExchangeAppend(raw, nil)
}

// ExchangeAppend is Exchange writing the reply into dst's spare capacity: the
// reply bytes are appended to dst and the extended slice returned, so a
// caller reusing one buffer (dst[:0]) pays zero steady-state allocations per
// exchange. A nil return with nil error still means silence. This is the
// probe layer's ExchangeAppender fast path. Safe for concurrent use.
//
//tracenet:hotpath
func (p *Port) ExchangeAppend(raw, dst []byte) ([]byte, error) {
	x := scratchPool.Get().(*exchangeScratch)
	defer scratchPool.Put(x)
	pkt, err := x.dec.DecodeInto(raw)
	if err != nil {
		return nil, fmt.Errorf("netsim: undecodable probe: %w", err)
	}
	if pkt.IP.Src != p.host.Addr() {
		return nil, fmt.Errorf("netsim: probe source %v is not host %s (%v)",
			pkt.IP.Src, p.host.Name, p.host.Addr())
	}
	reply, responder := p.net.exchange(x, pkt, raw, p.host)
	if reply == nil {
		return nil, nil
	}
	start := len(dst)
	out, err := reply.AppendEncode(dst)
	if err != nil {
		return nil, fmt.Errorf("netsim: encoding reply: %w", err)
	}
	// Mangling faults touch only the reply region, never a caller prefix; a
	// truncation that consumed the whole datagram reads as silence.
	mangled := p.net.mangleReply(out[start:], responder)
	if len(mangled) == 0 {
		return nil, nil
	}
	return out[:start+len(mangled)], nil
}

// Wait advances the network's virtual clock by ticks without injecting a
// packet: the probe layer's backoff hook. Rate-limit buckets (including
// storm buckets) refill against the clock, so backing off genuinely lets a
// hammered router recover.
func (p *Port) Wait(ticks uint64) {
	clock := p.net.clock.Add(ticks)
	p.net.gClock.SetMax(int64(clock))
}

// tick advances the clock and probe counter for one injection, maintaining
// the clock-mirror gauge and the counter invariant. All state it touches is
// atomic.
func (n *Network) tick() {
	clock := n.clock.Add(1)
	// Replies is loaded before Probes is incremented: every reply increment
	// is preceded by its probe's increment, so this ordering can never
	// observe a spurious violation.
	replies := atomic.LoadUint64(&n.Replies)
	probes := atomic.AddUint64(&n.Probes, 1)
	n.cProbes.Inc()
	n.gClock.SetMax(int64(clock))
	invariant.Assertf(replies <= probes,
		"netsim: replies %d outran probes %d", replies, probes)
	invariant.Assertf(n.cfg.LossRate >= 0 && n.cfg.LossRate <= 1,
		"netsim: LossRate %v escaped [0,1] after construction", n.cfg.LossRate)
}

// exchange walks one probe through the topology and settles its reply: loss,
// IP-ID assignment, and delay faults, every random draw striped by the
// responding router. Returns the reply synthesized in x (nil for silence)
// and the responding router.
func (n *Network) exchange(x *exchangeScratch, pkt *wire.Packet, raw []byte, origin *Router) (*wire.Packet, *Router) {
	n.tick()
	reply, responder := n.walk(x, pkt, raw, origin)
	if reply == nil {
		return nil, nil
	}
	if n.cfg.LossRate > 0 {
		sh := &n.shards[shardIndex(responder)]
		lost := sh.chance(n.cfg.LossRate)
		if lost && n.duplicateChance(responder) {
			// A duplicated reply gets a second, independent draw against loss.
			lost = sh.chance(n.cfg.LossRate)
		}
		if lost {
			return nil, nil
		}
	}
	if responder != nil {
		// The reply's IP identifier comes from the responding router's
		// shared counter (or a random draw for non-cooperative routers) —
		// the signal Ally-style alias resolution keys on.
		if responder.IPIDRandom {
			reply.IP.ID = uint16(n.shards[shardIndex(responder)].intn(1 << 16))
		} else {
			reply.IP.ID = n.nextIPID(responder)
		}
	}
	if n.replyDelayed(responder) {
		// The router answered, but the reply misses the prober's timeout
		// window; it consumed the router's tokens and IP-ID all the same.
		return nil, nil
	}
	atomic.AddUint64(&n.Replies, 1)
	n.cReplies.Inc()
	return reply, responder
}

// route is a probe's destination as forwarding sees it: the subnet it
// routes toward (nil: no route), the interface assigned the destination
// address (nil: unassigned) and the subnet's route table. walk resolves it
// once per probe.
type route struct {
	subnet *Subnet
	iface  *Iface
	table  *routeTable
}

// walk traces one probe hop by hop until it is answered, dropped, or runs out
// of hops, returning the reply (synthesized into x) and the router that
// generated it. The topology and the routes it reads are immutable once
// published; fault windows and counters are atomic; random draws lock only
// the responding router's stripe.
func (n *Network) walk(x *exchangeScratch, pkt *wire.Packet, raw []byte, origin *Router) (*wire.Packet, *Router) {
	dst := pkt.IP.Dst
	ttl := int(pkt.IP.TTL)
	if ttl <= 0 {
		return nil, nil
	}
	dest := route{iface: n.Topo.IfaceByAddr(dst)}
	// Self-probe: answered locally without entering the network.
	if dest.iface != nil && dest.iface.Router == origin {
		return n.directReply(x, origin, dest.iface, nil, pkt, raw)
	}
	if dest.iface != nil {
		dest.subnet = dest.iface.Subnet
	} else {
		dest.subnet = n.Topo.SubnetContaining(dst)
	}
	if dest.subnet != nil {
		dest.table = n.Topo.routesTo(dest.subnet)
	}

	cur, in, _, verdict := n.forwardStep(origin, pkt, &dest)
	if verdict != stepForwarded && verdict != stepDelivered {
		// The vantage itself cannot reach the destination; hosts do not
		// generate ICMP errors for their own traffic.
		return nil, nil
	}
	if n.subnetDown(in.Subnet) || n.blackholed(cur) {
		return nil, nil
	}
	for hop := 0; hop < maxHops; hop++ {
		// Local delivery: the packet is addressed to one of cur's interfaces.
		if dest.iface != nil && dest.iface.Router == cur {
			return n.directReply(x, cur, dest.iface, in, pkt, raw)
		}
		// TTL expires on forwarding.
		ttl--
		pkt.IP.TTL = uint8(ttl)
		if ttl <= 0 {
			return n.ttlExceeded(x, cur, in, pkt, raw)
		}
		next, nextIn, out, verdict := n.forwardStep(cur, pkt, &dest)
		if (verdict == stepForwarded || verdict == stepDelivered) &&
			cur.RRCompliant && out != nil && len(pkt.IP.Options) > 0 {
			// RFC 791 record route: a compliant router stamps the address
			// of the outgoing interface as it forwards (the DisCarte
			// mechanism for a second address per hop).
			wire.StampRecordRoute(pkt.IP.Options, out.Addr)
		}
		switch verdict {
		case stepForwarded, stepDelivered:
			// Forwarded to the next router, or delivered onto an attached
			// subnet toward the hosting router. Either way the packet
			// crosses nextIn's subnet and enters next — both of which a
			// fault plan may have taken down.
			if n.subnetDown(nextIn.Subnet) || n.blackholed(next) {
				return nil, nil
			}
			cur, in = next, nextIn
		case stepFirewalled:
			return nil, nil
		case stepUnassigned:
			return n.unreachable(x, cur, in, pkt, raw, wire.CodeHostUnreach)
		case stepNoRoute:
			return n.unreachable(x, cur, in, pkt, raw, wire.CodeNetUnreach)
		}
	}
	return nil, nil
}

type stepVerdict uint8

const (
	stepForwarded stepVerdict = iota
	stepDelivered
	stepFirewalled
	stepUnassigned
	stepNoRoute
)

// forwardStep decides cur's next hop for pkt toward dest. It returns the
// next router, the interface the packet enters it through, and the outgoing
// interface on cur (for record-route stamping). Reads only published routes,
// the atomic clock, and the lock-free next-hop memo.
func (n *Network) forwardStep(cur *Router, pkt *wire.Packet, dest *route) (*Router, *Iface, *Iface, stepVerdict) {
	s := dest.subnet
	if s == nil {
		return nil, nil, nil, stepNoRoute
	}
	if dest.table.dist[cur.idx] == 0 {
		// Final subnet: deliver across the LAN.
		if s.Unresponsive {
			return nil, nil, nil, stepFirewalled
		}
		if dest.iface == nil {
			return nil, nil, nil, stepUnassigned
		}
		return dest.iface.Router, dest.iface, cur.IfaceOn(s), stepDelivered
	}
	hops := dest.table.nextHops(cur)
	if len(hops) == 0 {
		return nil, nil, nil, stepNoRoute
	}
	var salt uint64
	if n.cfg.Mode == PerPacket {
		salt = n.clock.Load()
	}
	// An active churn fault reshuffles equal-cost choices per epoch even for
	// per-flow balancing, modelling mid-session routing changes.
	salt ^= n.churnSalt()
	e := hops[ecmpIndex(pkt, cur, salt, len(hops))]
	return e.to, e.remote, e.local, stepForwarded
}

// directReply answers a probe delivered to iface on router r, returning the
// reply (synthesized into x) and the responding router.
func (n *Network) directReply(x *exchangeScratch, r *Router, iface, in *Iface, pkt *wire.Packet, raw []byte) (*wire.Packet, *Router) {
	if iface.Subnet.Unresponsive {
		// Firewalled subnet: probes into its range die silently, including
		// at the hosting router itself.
		return nil, nil
	}
	if !iface.Responsive {
		return nil, nil
	}
	if r.DirectPolicy == PolicyNil || !r.DirectProtos.Has(pkt.IP.Protocol) {
		return nil, nil
	}
	if n.blackholed(r) {
		return nil, nil
	}
	if !n.stormAllows(r) {
		return nil, nil
	}
	if r.ReplyLoss > 0 && n.shards[shardIndex(r)].chance(r.ReplyLoss) {
		return nil, nil
	}
	src := n.Topo.replySource(r, r.DirectPolicy, iface, in, pkt.IP.Src)
	if src == nil {
		return nil, nil
	}
	switch {
	case pkt.ICMP != nil && pkt.ICMP.Type == wire.ICMPEchoRequest:
		return x.echoReply(src.Addr, pkt), r
	case pkt.UDP != nil:
		// No listener on traceroute-style high ports: port unreachable.
		return x.icmpError(src.Addr, wire.ICMPDestUnreach, wire.CodePortUnreach, pkt, raw), r
	case pkt.TCP != nil:
		// Unsolicited ACK probe: RST from the probed address (TCP replies
		// always come from the addressed endpoint).
		return x.tcpReset(iface.Addr, pkt), r
	}
	return nil, nil
}

// ttlExceeded answers a probe whose TTL expired at router r, returning the
// reply (synthesized into x) and the responding router.
func (n *Network) ttlExceeded(x *exchangeScratch, r *Router, in *Iface, pkt *wire.Packet, raw []byte) (*wire.Packet, *Router) {
	// Byzantine faults come first: a transparent hidden hop never answers
	// whatever its honest policy says, and an echo responder fabricates its
	// lie even where the honest router would stay silent.
	if n.hiddenHop(r) {
		return nil, nil
	}
	if n.echoMirrors(r) {
		if fake := x.fabricateAlive(pkt, raw); fake != nil {
			return fake, r
		}
	}
	if r.IndirectPolicy == PolicyNil || !r.IndirectProtos.Has(pkt.IP.Protocol) {
		return nil, nil
	}
	if n.blackholed(r) {
		return nil, nil
	}
	if !n.stormAllows(r) {
		return nil, nil
	}
	if r.ReplyLoss > 0 && n.shards[shardIndex(r)].chance(r.ReplyLoss) {
		return nil, nil
	}
	src := n.Topo.replySource(r, r.IndirectPolicy, nil, in, pkt.IP.Src)
	if src == nil {
		return nil, nil
	}
	return x.icmpError(n.spoofSource(r, src.Addr), wire.ICMPTimeExceeded, wire.CodeTTLExceeded, pkt, raw), r
}

// unreachable answers a probe that cannot be delivered past router r,
// returning the reply (synthesized into x) and the responding router.
func (n *Network) unreachable(x *exchangeScratch, r *Router, in *Iface, pkt *wire.Packet, raw []byte, code uint8) (*wire.Packet, *Router) {
	// Byzantine faults come first — an echo responder lies about unassigned
	// destinations even when the honest router would drop them silently
	// (EmitUnreachable unset). That lie is exactly how phantom subnet members
	// get minted.
	if n.hiddenHop(r) {
		return nil, nil
	}
	if n.echoMirrors(r) {
		if fake := x.fabricateAlive(pkt, raw); fake != nil {
			return fake, r
		}
	}
	if !r.EmitUnreachable {
		return nil, nil
	}
	if r.IndirectPolicy == PolicyNil || !r.IndirectProtos.Has(pkt.IP.Protocol) {
		return nil, nil
	}
	if n.blackholed(r) {
		return nil, nil
	}
	if !n.stormAllows(r) {
		return nil, nil
	}
	if r.ReplyLoss > 0 && n.shards[shardIndex(r)].chance(r.ReplyLoss) {
		return nil, nil
	}
	src := n.Topo.replySource(r, r.IndirectPolicy, nil, in, pkt.IP.Src)
	if src == nil {
		return nil, nil
	}
	return x.icmpError(n.spoofSource(r, src.Addr), wire.ICMPDestUnreach, code, pkt, raw), r
}

// DistanceTo returns the observed hop distance from the named host to addr:
// the smallest TTL at which a lossless ICMP echo probe is answered with an
// echo reply. It returns -1 when addr never answers (unassigned,
// unresponsive, firewalled, or unreachable). The measurement walk shares the
// topology's routes but has its own scratch and random stream, so it does
// not perturb the network's clock, counters, or configured streams.
// Exposed for tests and ground-truth computation.
func (n *Network) DistanceTo(hostName string, addr ipv4.Addr) int {
	h := n.Topo.HostByName(hostName)
	if h == nil || h.Addr() == addr {
		if h != nil {
			return 0
		}
		return -1
	}
	probe := &Network{Topo: n.Topo}
	seedShards(&probe.shards, 0)
	var x exchangeScratch
	for ttl := 1; ttl <= maxHops; ttl++ {
		pkt := wire.NewEchoRequest(h.Addr(), addr, uint8(ttl), 0xfffe, uint16(ttl))
		raw, err := pkt.Encode()
		if err != nil {
			return -1
		}
		reply, _ := probe.walk(&x, pkt, raw, h)
		if reply != nil && reply.ICMP != nil && reply.ICMP.Type == wire.ICMPEchoReply {
			return ttl
		}
		if reply == nil && ttl > 1 {
			// Once past the expiry region replies stop entirely; keep walking
			// to maxHops anyway — silence at a hop does not imply silence at
			// the destination (anonymous intermediate routers).
			continue
		}
	}
	return -1
}
