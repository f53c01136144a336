// Package probe implements the two probing primitives tracenet is built on
// (paper §3.1): direct probing — a large-TTL packet testing whether an
// address is alive — and indirect probing — a small-TTL packet soliciting an
// ICMP time-exceeded from the router at that distance. Probes can be carried
// over ICMP, UDP, or TCP, and silent probes are retried once by default
// (paper §3.8: "we re-probe an IP address if we do not get a response for the
// first probe").
//
// The prober talks to the network through the Transport interface, which the
// simulated substrate (internal/netsim) implements; a raw-socket transport
// would satisfy the same contract on a live network.
package probe

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"tracenet/internal/ipv4"
	"tracenet/internal/telemetry"
	"tracenet/internal/wire"
)

// Transport carries one encoded probe to the network and returns the encoded
// reply, or (nil, nil) when the network stays silent (timeout).
type Transport interface {
	Exchange(raw []byte) ([]byte, error)
}

// ExchangeAppender is optionally implemented by Transports that can write the
// reply into a caller-supplied buffer: the reply is appended to dst (normally
// dst[:0] of a reused buffer) and the extended slice returned, or (nil, nil)
// on silence. The prober owns the buffer, so steady-state exchanges allocate
// nothing — and because each prober brings its own buffer, one shared
// transport port can serve concurrent probers without a shared reply slot.
type ExchangeAppender interface {
	ExchangeAppend(raw, dst []byte) ([]byte, error)
}

// Waiter is optionally implemented by Transports whose notion of time can
// advance without sending a packet. The prober's exponential backoff calls
// Wait between retries; the simulated substrate advances its virtual clock
// (letting rate-limit buckets refill), and a raw-socket transport would
// sleep. Transports without Wait simply retry immediately.
type Waiter interface {
	Wait(ticks uint64)
}

// Protocol selects the probe carrier.
type Protocol uint8

const (
	ICMP Protocol = iota
	UDP
	TCP
)

func (p Protocol) String() string {
	switch p {
	case ICMP:
		return "icmp"
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Kind classifies the outcome of a probe.
type Kind uint8

const (
	// None: no response within the timeout (after retries).
	None Kind = iota
	// EchoReply: ICMP echo reply — the probed address is alive.
	EchoReply
	// TTLExceeded: ICMP time exceeded from an intermediate router.
	TTLExceeded
	// PortUnreachable: ICMP port unreachable — a live UDP-probed endpoint.
	PortUnreachable
	// HostUnreachable: ICMP host/net unreachable from the last router.
	HostUnreachable
	// TCPReset: TCP RST — a live TCP-probed endpoint.
	TCPReset
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case EchoReply:
		return "echo-reply"
	case TTLExceeded:
		return "ttl-exceeded"
	case PortUnreachable:
		return "port-unreachable"
	case HostUnreachable:
		return "host-unreachable"
	case TCPReset:
		return "tcp-reset"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Result is the outcome of one logical probe (including retries).
type Result struct {
	Kind Kind
	// From is the source address of the reply; Zero when silent.
	From ipv4.Addr
	// Recorded holds the record-route stamps carried back by the reply (an
	// echoed option, or the quoted header of an ICMP error) when the prober
	// runs with Options.RecordRoute. The stamps are the outgoing interfaces
	// of the compliant routers the probe traversed, in path order.
	Recorded []ipv4.Addr
	// IPID is the IP identifier of the reply datagram. Routers that share
	// one IP-ID counter across interfaces expose their identity through it
	// (the Ally alias-resolution signal).
	IPID uint16
}

// Alive reports whether the result proves the probed address is in use: for
// ICMP probing an echo reply, for UDP a port unreachable, for TCP a reset.
func (r Result) Alive() bool {
	return r.Kind == EchoReply || r.Kind == PortUnreachable || r.Kind == TCPReset
}

// Expired reports whether the probe died at an intermediate router.
func (r Result) Expired() bool { return r.Kind == TTLExceeded }

// Silent reports whether nothing came back.
func (r Result) Silent() bool { return r.Kind == None }

// Stats accumulates probe accounting across a prober's lifetime; tracenet's
// probing-overhead model (paper §3.6) is validated against these counters.
type Stats struct {
	Sent     uint64 // packets sent, including retries and memo replays
	Answered uint64 // packets that drew any response
	Retries  uint64 // additional packets sent after silence
	Cached   uint64 // logical probes served from the response cache

	// Campaign memo accounting (see Memo): a memo hit replays its owner's
	// exchange into the counters above, so Sent counts logical packets and
	// Wire() the ones this prober put on the wire.
	MemoHits     uint64 // logical probes the campaign memo answered
	MemoReplayed uint64 // packets those hits replayed into Sent

	// Resilience accounting (fault injection & graceful degradation).
	Timeouts     uint64 // logical probes still silent after all retries
	Corrupt      uint64 // replies that failed to decode (mangled datagrams)
	BreakerOpens uint64 // circuit-breaker open (or re-open) transitions
	BreakerSkips uint64 // logical probes skipped because a breaker was open
	BackoffTicks uint64 // virtual ticks spent waiting between retries
	PacerTicks   uint64 // virtual ticks spent waiting on the rate pacer
}

// FaultEvents returns the number of definite fault observations: mangled
// replies plus breaker activity. Unlike Timeouts — which silent-by-design
// addresses (unassigned space, firewalled subnets) also accumulate — these
// only occur under network pathologies or active load shedding, so the
// session layer uses them to flag degraded subnets.
func (s Stats) FaultEvents() uint64 {
	return s.Corrupt + s.BreakerSkips
}

// Wire returns the packets the prober itself put on the wire: Sent less
// what memo hits replayed.
func (s Stats) Wire() uint64 { return s.Sent - s.MemoReplayed }

// Sub returns the component-wise difference s - base. It underpins Scope:
// two snapshots of a monotonically-growing Stats bracket a phase of work,
// and their difference is that phase's accounting.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Sent:         s.Sent - base.Sent,
		Answered:     s.Answered - base.Answered,
		Retries:      s.Retries - base.Retries,
		Cached:       s.Cached - base.Cached,
		MemoHits:     s.MemoHits - base.MemoHits,
		MemoReplayed: s.MemoReplayed - base.MemoReplayed,
		Timeouts:     s.Timeouts - base.Timeouts,
		Corrupt:      s.Corrupt - base.Corrupt,
		BreakerOpens: s.BreakerOpens - base.BreakerOpens,
		BreakerSkips: s.BreakerSkips - base.BreakerSkips,
		BackoffTicks: s.BackoffTicks - base.BackoffTicks,
		PacerTicks:   s.PacerTicks - base.PacerTicks,
	}
}

// Scope brackets a phase of probing for attribution: open one before the
// phase, and Delta reports the stats the prober accumulated since. It
// replaces ad-hoc `before := pr.Stats().Sent` snapshot arithmetic at call
// sites, and is what the session layer feeds into span-scoped counters.
type Scope struct {
	pr   *Prober
	base Stats
}

// Scope opens an accounting scope at the prober's current totals.
func (p *Prober) Scope() Scope { return Scope{pr: p, base: p.stats} }

// Delta returns the stats accumulated since the scope was opened.
func (s Scope) Delta() Stats { return s.pr.stats.Sub(s.base) }

// CountInto adds the scope's delta to a span's scoped counters (probes sent,
// answered, retries, cached, fault events). Nil-safe: a nil span discards.
func (s Scope) CountInto(sp *telemetry.Span) {
	d := s.Delta()
	sp.Count("probes_sent", d.Sent)
	sp.Count("answered", d.Answered)
	sp.Count("retries", d.Retries)
	sp.Count("cached", d.Cached)
	sp.Count("fault_events", d.FaultEvents())
}

// ErrBudgetExceeded is returned once a prober exhausts its probe budget.
var ErrBudgetExceeded = errors.New("probe: budget exceeded")

// ErrTransport wraps every error the underlying Transport returns, so the
// session layer can distinguish a faulty network (recoverable: treat the
// probe as silent and degrade) from programming errors and budget
// exhaustion (not recoverable).
var ErrTransport = errors.New("probe: transport")

// RetryPolicy is the retry configuration: how often a silent probe is
// re-sent and how long the prober backs off between attempts.
type RetryPolicy struct {
	// MaxRetries is how many times a silent logical probe is re-sent after
	// its first attempt. 0 disables retrying.
	MaxRetries int
	// BackoffBase is the wait, in transport ticks, before the first retry;
	// each further retry doubles it (exponential backoff). 0 disables
	// backoff: retries are immediate, the seed repository's §3.8 behaviour.
	BackoffBase uint64
	// BackoffMax caps the exponential growth (0 = uncapped).
	BackoffMax uint64
	// Jitter in [0,1) randomizes each wait by ±Jitter of its value, drawn
	// from a deterministic per-prober stream, decorrelating retry storms.
	Jitter float64
}

// Validate rejects out-of-range retry policies.
func (p RetryPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("probe: retry policy: MaxRetries %d < 0", p.MaxRetries)
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		return fmt.Errorf("probe: retry policy: Jitter %v outside [0,1)", p.Jitter)
	}
	if p.Jitter > 0 && p.BackoffBase == 0 {
		return fmt.Errorf("probe: retry policy: Jitter without BackoffBase")
	}
	return nil
}

// wait returns the backoff before retry attempt (0-based), jittered by rng.
func (p RetryPolicy) wait(attempt int, rng *rand.Rand) uint64 {
	if p.BackoffBase == 0 {
		return 0
	}
	w := p.BackoffBase
	for i := 0; i < attempt && (p.BackoffMax == 0 || w < p.BackoffMax); i++ {
		w <<= 1
	}
	if p.BackoffMax > 0 && w > p.BackoffMax {
		w = p.BackoffMax
	}
	if p.Jitter > 0 {
		d := int64(p.Jitter * float64(w) * (2*rng.Float64() - 1))
		if d < 0 && uint64(-d) >= w {
			return 1
		}
		w = uint64(int64(w) + d)
	}
	if w == 0 {
		w = 1
	}
	return w
}

// Options configure a Prober.
type Options struct {
	// Protocol selects ICMP (default), UDP, or TCP probes.
	Protocol Protocol
	// Retry is the retry policy. nil means one immediate retry, the paper's
	// §3.8 behaviour; a zero RetryPolicy disables retrying.
	Retry *RetryPolicy
	// FlowID seeds the ICMP identifier / source port. Probes with the same
	// FlowID hash to the same equal-cost path (Paris-style stability); a
	// prober holds it constant for its lifetime.
	FlowID uint16
	// VaryFlow makes every probe use a fresh flow identifier, reproducing
	// classic (non-Paris) traceroute behaviour under load balancing.
	VaryFlow bool
	// SharedBudget caps the packets one prober, or a set of probers (a
	// campaign's workers), may send; nil disables it. It is checked before
	// every wire send, and once it is spent the prober stops with
	// ErrBudgetExceeded. The budget is reserved atomically, so concurrent
	// probers can never collectively overspend it.
	SharedBudget *SharedBudget
	// Pacer rate-limits wire sends: before every packet the prober reserves a
	// send slot and sleeps out the returned wait through the transport's
	// Waiter (advancing the virtual clock on the simulated substrate). The
	// daemon shares one pacer across every prober of a tenant, shaping the
	// tenant's aggregate rate; nil disables pacing. Cache hits and
	// breaker-skipped probes bypass it — they put nothing on the wire.
	Pacer Pacer
	// Activity, when set, is marked after every completed wire exchange — a
	// campaign shares one across its probers so the observability plane can
	// read live probe counts and detect stalls without locks (two atomic ops,
	// zero allocations on the hot path; nil disables it).
	Activity *Activity
	// Cache memoizes (destination, TTL) outcomes so repeated logical probes
	// cost no packets. tracenet's rule merging (§3.5: "both H3 and H6
	// require the same single probe") relies on this.
	Cache bool
	// Memo, when set, is the memo of logical probes every prober of a
	// campaign shares (see Memo); collect.Run overwrites it. Probe consults
	// it after the prober's own response cache; ProbeUnshared and
	// ProbeUncached never touch it, and a RecordRoute prober ignores it.
	Memo *Memo
	// RecordRoute sets the IP record-route option on every probe, the
	// DisCarte mechanism: compliant routers stamp their outgoing interface,
	// yielding a second address per hop for the first nine hops.
	RecordRoute bool
	// Breaker enables the per-zone circuit breaker (nil = disabled, the
	// paper's behaviour). See BreakerConfig.
	Breaker *BreakerConfig
	// Telemetry attaches the run's observability layer: every Stats
	// increment is mirrored into the metrics registry, each exchange becomes
	// a flight-recorder event and a "probe" trace slice, and a breaker
	// opening raises an incident. nil disables instrumentation; the prober
	// then pays only nil checks (see package telemetry).
	Telemetry *telemetry.Telemetry
}

// Prober issues direct and indirect probes through a Transport.
// It is not safe for concurrent use.
type Prober struct {
	tr   Transport
	src  ipv4.Addr
	opts Options

	retry  RetryPolicy
	waiter Waiter // tr's Wait hook, nil when unsupported
	jitter *rand.Rand
	br     *breaker

	// seq numbers every packet the prober ever sends. It is 32-bit — wide
	// enough that long re-scan sessions never silently wrap the probe
	// identifier space (a uint16 wrapped after 65k sends, and with VaryFlow
	// the repeated (ID, Seq) pairs risked reply mis-association).
	seq   uint32
	stats Stats
	cache map[cacheKey]Result

	// Per-probe scratch: the request packet, its transport layer, and the
	// encode buffer are rebuilt in place every exchange instead of being
	// reallocated. Nothing downstream retains them — netsim copies what it
	// keeps (the ipalias invariant) and classify only reads.
	req     wire.Packet
	reqICMP wire.ICMP
	reqUDP  wire.UDP
	reqTCP  wire.TCP
	encBuf  []byte

	// tmpl is the pre-marshaled probe packet, patched in place per send with
	// incremental checksum updates. nil when the probe shape precludes it
	// (RecordRoute options mutate en route), falling back to AppendEncode.
	tmpl *wire.Template
	// exApp is tr's ExchangeAppend hook (nil when unsupported) and replyBuf
	// the prober-owned reply buffer it fills.
	exApp    ExchangeAppender
	replyBuf []byte
	// dec is the reply decode scratch: each reply is decoded in place,
	// overwriting the previous one (nothing retains the decoded reply beyond
	// classify/observe).
	dec wire.DecodeScratch

	// Telemetry mirror of stats: handles are resolved once (SetTelemetry)
	// and nil-safe, so the disabled path costs one nil check per increment.
	// evBuf is the reused flight-recorder message buffer; dstMemo caches the
	// rendered destination (a trace probes one address many times in a row).
	evBuf         []byte
	dstMemo       string
	dstMemoAddr   ipv4.Addr
	tel           *telemetry.Telemetry
	cSent         *telemetry.Counter
	cAnswered     *telemetry.Counter
	cRetries      *telemetry.Counter
	cCached       *telemetry.Counter
	cTimeouts     *telemetry.Counter
	cCorrupt      *telemetry.Counter
	cBreakerOpens *telemetry.Counter
	cBreakerSkips *telemetry.Counter
	cBackoff      *telemetry.Counter
	cPacer        *telemetry.Counter
	hReplyTTL     *telemetry.Histogram
}

type cacheKey struct {
	dst ipv4.Addr
	ttl uint8
}

// DirectTTL is the "large enough TTL value" (paper §3.1(i)) used for direct
// probes.
const DirectTTL = 64

// New creates a prober sourcing probes from src. It panics on an
// out-of-range retry or breaker policy — a programming error at the call
// site, not a runtime condition.
func New(tr Transport, src ipv4.Addr, opts Options) *Prober {
	retry := RetryPolicy{MaxRetries: 1}
	if opts.Retry != nil {
		if err := opts.Retry.Validate(); err != nil {
			panic(err)
		}
		retry = *opts.Retry
	}
	if opts.FlowID == 0 {
		opts.FlowID = 0x7a7a
	}
	if opts.RecordRoute {
		// The memo keeps no record-route stamps; a hit must not drop them.
		opts.Memo = nil
	}
	p := &Prober{tr: tr, src: src, opts: opts, retry: retry}
	if retry.BackoffBase > 0 || opts.Pacer != nil {
		// Backoff and pacing both wait through the transport's clock hook.
		p.waiter, _ = tr.(Waiter)
	}
	if retry.BackoffBase > 0 {
		// The jitter stream is seeded from the flow identifier so a rerun
		// with the same options backs off identically.
		p.jitter = rand.New(rand.NewSource(int64(opts.FlowID)*2654435761 + 1))
	}
	if opts.Breaker != nil {
		if err := opts.Breaker.Validate(); err != nil {
			panic(err)
		}
		p.br = newBreaker(*opts.Breaker)
	}
	if opts.Cache {
		p.cache = make(map[cacheKey]Result)
	}
	if !opts.RecordRoute {
		// Pre-marshal the probe once; per-send fields (TTL, seq, dst, ports)
		// are patched in place with incremental checksum updates. The
		// placeholder field values are overwritten by the first patch.
		var base *wire.Packet
		switch opts.Protocol {
		case ICMP:
			base = wire.NewEchoRequest(src, ipv4.Zero, 1, opts.FlowID, 0)
		case UDP:
			base = wire.NewUDPProbe(src, ipv4.Zero, 1, opts.FlowID, 33434)
		case TCP:
			base = wire.NewTCPProbe(src, ipv4.Zero, 1, opts.FlowID, 80, 0)
		}
		if base != nil {
			tmpl, err := wire.NewTemplate(base)
			if err != nil {
				panic(err) // unreachable: the base probe carries no options
			}
			p.tmpl = tmpl
		}
	}
	p.exApp, _ = tr.(ExchangeAppender)
	p.SetTelemetry(opts.Telemetry)
	return p
}

// ReplyTTLBuckets are the reply-TTL histogram bounds: common initial-TTL
// values sit at 32/64/128/255, so the distance consumed by the return path
// shows up as mass just below each bound.
var ReplyTTLBuckets = []uint64{16, 32, 48, 64, 96, 128, 192, 255}

// SetTelemetry attaches (or, with nil, detaches) a telemetry layer, resolving
// the prober's metric handles once so the hot path never touches the registry.
// Call it before probing starts; the prober is single-goroutine.
func (p *Prober) SetTelemetry(tel *telemetry.Telemetry) {
	p.tel = tel
	proto := p.opts.Protocol.String()
	p.cSent = tel.Counter("tracenet_probe_sent_total", "proto", proto)
	p.cAnswered = tel.Counter("tracenet_probe_answered_total", "proto", proto)
	p.cRetries = tel.Counter("tracenet_probe_retries_total", "proto", proto)
	p.cCached = tel.Counter("tracenet_probe_cached_total", "proto", proto)
	p.cTimeouts = tel.Counter("tracenet_probe_timeouts_total", "proto", proto)
	p.cCorrupt = tel.Counter("tracenet_probe_corrupt_total", "proto", proto)
	p.cBreakerOpens = tel.Counter("tracenet_probe_breaker_opens_total")
	p.cBreakerSkips = tel.Counter("tracenet_probe_breaker_skips_total")
	p.cBackoff = tel.Counter("tracenet_probe_backoff_ticks_total")
	p.cPacer = tel.Counter("tracenet_probe_pacer_wait_ticks_total")
	p.hReplyTTL = tel.Histogram("tracenet_probe_reply_ttl", ReplyTTLBuckets, "proto", proto)
}

// Telemetry returns the attached telemetry layer (nil when disabled), letting
// the layers above the prober — session, alias resolver — share one pipeline.
func (p *Prober) Telemetry() *telemetry.Telemetry { return p.tel }

// RetryPolicy returns the prober's resolved retry policy.
func (p *Prober) RetryPolicy() RetryPolicy { return p.retry }

// Src returns the prober's source address.
func (p *Prober) Src() ipv4.Addr { return p.src }

// Protocol returns the probe carrier protocol.
func (p *Prober) Protocol() Protocol { return p.opts.Protocol }

// Stats returns a snapshot of the probe accounting.
func (p *Prober) Stats() Stats { return p.stats }

// ClearCache empties the prober's response cache (a no-op when caching is
// disabled), keeping its storage for the next epoch. The campaign layer
// clears it before every shared subnet exploration so an exploration's
// probe cost is a pure function of its hop context — independent of which
// worker happens to run it — which is what keeps parallel campaigns
// byte-deterministic. The campaign memo does not change that cost: a memo
// hit replays the packets its owner spent. Stats are unaffected.
func (p *Prober) ClearCache() {
	clear(p.cache)
}

// Direct sends a direct probe (large TTL) testing whether dst is alive.
func (p *Prober) Direct(dst ipv4.Addr) (Result, error) {
	return p.Probe(dst, DirectTTL)
}

// Probe sends one logical probe to dst with the given TTL, retrying on
// silence, and classifies the response. It is answered from the prober's
// response cache, then from the campaign memo, before it goes on the wire.
func (p *Prober) Probe(dst ipv4.Addr, ttl int) (Result, error) {
	return p.probe(dst, ttl, shared)
}

// ProbeUnshared is Probe without the campaign memo: the response cache still
// answers, but a miss goes on the wire and its outcome is not published. A
// trace sends its TTL-1 probe this way, so the first packet every traced
// target puts on the wire names the target.
func (p *Prober) ProbeUnshared(dst ipv4.Addr, ttl int) (Result, error) {
	return p.probe(dst, ttl, unshared)
}

// ProbeUncached is Probe bypassing the response cache and the memo in both
// directions: no stored outcome is used and the fresh outcome replaces none.
// It is the cross-validation primitive of the adversarial defenses — a lying
// responder's first answer must not be able to vouch for itself, and the
// re-probe must not overwrite the evidence of what was originally observed.
func (p *Prober) ProbeUncached(dst ipv4.Addr, ttl int) (Result, error) {
	return p.probe(dst, ttl, uncached)
}

// probeMode selects which stored outcomes a logical probe may use and fill.
type probeMode uint8

const (
	shared   probeMode = iota // response cache, then the campaign memo
	unshared                  // response cache only
	uncached                  // neither
)

// probe is the per-probe engine behind Probe, ProbeUnshared and
// ProbeUncached.
//
//tracenet:hotpath
func (p *Prober) probe(dst ipv4.Addr, ttl int, mode probeMode) (Result, error) {
	if ttl < 1 || ttl > 255 {
		return Result{}, fmt.Errorf("probe: ttl %d out of range", ttl)
	}
	key := cacheKey{dst, uint8(ttl)}
	useCache := mode != uncached && p.cache != nil
	if useCache {
		if r, ok := p.cache[key]; ok {
			p.stats.Cached++
			p.cCached.Inc()
			return r, nil
		}
	}
	if p.br != nil && !p.br.allow(dst) {
		// The zone's breaker is open: answer locally with silence instead
		// of hammering a rate-limited or dead router. Skipped outcomes are
		// not cached, so the address gets a real probe once the breaker
		// half-opens.
		p.stats.BreakerSkips++
		p.cBreakerSkips.Inc()
		return Result{}, nil
	}
	var res Result
	var err error
	if p.opts.Memo != nil && mode == shared {
		res, err = p.memoized(dst, uint8(ttl))
	} else {
		res, err = p.exchange(dst, uint8(ttl))
	}
	if err != nil {
		return Result{}, err
	}
	if p.br != nil && p.br.record(dst, !res.Silent()) {
		p.stats.BreakerOpens++
		p.cBreakerOpens.Inc()
		// A breaker opening is active load shedding — the degradation signal
		// the flight recorder exists for, so dump the probe history now.
		p.tel.Incident(fmt.Sprintf("breaker-open zone=%v/%d",
			p.br.key(dst), p.br.cfg.KeyBits))
	}
	if useCache {
		p.cache[key] = res
	}
	return res, nil
}

// memoized serves one logical probe through the campaign memo: a finished
// entry is replayed, and a key no prober has asked for yet is exchanged here
// and published for every later asker.
//
//tracenet:hotpath
func (p *Prober) memoized(dst ipv4.Addr, ttl uint8) (Result, error) {
	m := p.opts.Memo
	key := memoKey(dst, ttl)
	s, owner := m.claim(key)
	if !owner {
		return p.replay(s), nil
	}
	before := p.stats
	res, err := p.exchange(dst, ttl)
	s = memoSlot{}
	if err == nil {
		s = memoSlot{reply: packReply(res), cost: packCost(p.stats.Sub(before))}
	}
	m.settle(key, s)
	return res, err
}

// exchange puts one logical probe on the wire: a packet, then a retry after
// each silence up to the retry policy, backing off between attempts.
//
//tracenet:hotpath
func (p *Prober) exchange(dst ipv4.Addr, ttl uint8) (Result, error) {
	var res Result
	for attempt := 0; ; attempt++ {
		if !p.opts.SharedBudget.TrySpend(1) {
			return Result{}, ErrBudgetExceeded
		}
		if p.opts.Pacer != nil {
			// Budget first, pacer second: a refused packet must not burn a
			// rate slot, and a reserved slot is always followed by a send.
			if w := p.opts.Pacer.Reserve(p.tel.Ticks()); w > 0 {
				p.stats.PacerTicks += w
				p.cPacer.Add(w)
				if p.waiter != nil {
					p.waiter.Wait(w)
				}
			}
		}
		r, err := p.once(dst, ttl)
		if err != nil {
			return Result{}, err
		}
		res = r
		if !r.Silent() || attempt >= p.retry.MaxRetries {
			break
		}
		if w := p.retry.wait(attempt, p.jitter); w > 0 {
			p.stats.BackoffTicks += w
			p.cBackoff.Add(w)
			if p.waiter != nil {
				p.waiter.Wait(w)
			}
		}
		p.stats.Retries++
		p.cRetries.Inc()
	}
	if res.Silent() {
		p.stats.Timeouts++
		p.cTimeouts.Inc()
	}
	return res, nil
}

// once sends exactly one packet and classifies its reply.
//
//tracenet:hotpath
func (p *Prober) once(dst ipv4.Addr, ttl uint8) (Result, error) {
	p.seq++
	seq16 := uint16(p.seq)
	flow := p.opts.FlowID
	dstPort := uint16(33434) // classic traceroute's unused high-port range
	if p.opts.VaryFlow {
		// Epoch-rotated flow window: each probe draws a fresh flow identifier
		// from a 256-wide window anchored at FlowID, and the window's phase
		// rotates by one every time the 16-bit sequence laps. The bounded
		// window keeps flows from colliding with other probers' FlowID
		// ranges, and the rotation keeps (ID, Seq) pairs unique for 2^24
		// sends instead of repeating after 65k.
		off := uint16((p.seq + p.seq>>16) % 256)
		flow = p.opts.FlowID + off
		dstPort += off
	}
	// The request packet and its transport layer live in prober scratch:
	// mirrors of wire.NewEchoRequest/NewUDPProbe/NewTCPProbe built in place,
	// so the steady-state exchange allocates neither packet structs nor an
	// encode buffer. classify and observeExchange read this mirror; the wire
	// bytes come from the patched template (or AppendEncode when options are
	// carried).
	pkt := &p.req
	switch p.opts.Protocol {
	case ICMP:
		p.reqICMP = wire.ICMP{Type: wire.ICMPEchoRequest, ID: flow, Seq: seq16}
		p.req = wire.Packet{
			IP:   wire.IPHeader{TTL: ttl, Src: p.src, Dst: dst, ID: seq16},
			ICMP: &p.reqICMP,
		}
	case UDP:
		// The destination port doubles as the flow discriminator.
		p.reqUDP = wire.UDP{SrcPort: flow, DstPort: dstPort}
		p.req = wire.Packet{
			IP:  wire.IPHeader{TTL: ttl, Src: p.src, Dst: dst, ID: flow},
			UDP: &p.reqUDP,
		}
	case TCP:
		p.reqTCP = wire.TCP{SrcPort: flow, DstPort: 80, Seq: p.seq, Flags: wire.TCPFlagACK, Window: 1024}
		p.req = wire.Packet{
			IP:  wire.IPHeader{TTL: ttl, Src: p.src, Dst: dst, ID: flow},
			TCP: &p.reqTCP,
		}
	default:
		return Result{}, fmt.Errorf("probe: unknown protocol %v", p.opts.Protocol)
	}
	var raw []byte
	if p.tmpl != nil {
		switch p.opts.Protocol {
		case ICMP:
			p.tmpl.PatchICMPProbe(ttl, seq16, dst, flow, seq16)
		case UDP:
			p.tmpl.PatchUDPProbe(ttl, flow, dst, flow, dstPort)
		case TCP:
			p.tmpl.PatchTCPProbe(ttl, flow, dst, flow, p.seq)
		}
		raw = p.tmpl.Bytes()
	} else {
		if p.opts.RecordRoute {
			pkt.IP.Options = wire.MakeRecordRoute(wire.MaxRecordRouteSlots)
		}
		var err error
		raw, err = pkt.AppendEncode(p.encBuf[:0])
		if err != nil {
			return Result{}, err
		}
		p.encBuf = raw[:0]
	}
	p.stats.Sent++
	p.cSent.Inc()
	var start uint64
	if p.tel != nil {
		start = p.tel.Ticks()
	}
	var rawReply []byte
	var err error
	if p.exApp != nil {
		rawReply, err = p.exApp.ExchangeAppend(raw, p.replyBuf[:0])
		if rawReply != nil {
			p.replyBuf = rawReply[:0]
		}
	} else {
		rawReply, err = p.tr.Exchange(raw)
	}
	// Decode the reply exactly once, into prober-owned scratch; telemetry
	// observation reuses the decoded packet instead of re-decoding both
	// datagrams per exchange. Nothing retains it past this call.
	var reply *wire.Packet
	var derr error
	if err == nil && rawReply != nil {
		reply, derr = p.dec.DecodeInto(rawReply)
	}
	if p.tel != nil {
		p.observeExchange(start, pkt, reply, rawReply, err, derr)
	}
	if p.opts.Activity != nil {
		p.opts.Activity.MarkAt(p.tel.Ticks())
	}
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrTransport, err)
	}
	if rawReply == nil {
		return Result{}, nil
	}
	if derr != nil {
		// A mangled reply is treated as silence, like a failed checksum on a
		// real socket — but counted, because corruption is definite fault
		// evidence that silence alone is not.
		p.stats.Corrupt++
		p.cCorrupt.Inc()
		return Result{}, nil
	}
	res := p.classify(pkt, reply, dst)
	if res.Kind != None {
		p.stats.Answered++
		p.cAnswered.Inc()
	}
	return res, nil
}

// observeExchange mirrors one raw exchange onto the telemetry pipeline: the
// reply-TTL histogram, and — only for the sinks attached — a flight-recorder
// entry and a "probe" trace slice. Only called when p.tel != nil, keeping
// the disabled path to one nil check; a registry-only Telemetry (tracenetd's)
// renders nothing and allocates nothing here. It works from the packets the
// exchange already decoded — re-decoding the request and reply here used to
// cost four heap allocations per telemetered probe.
func (p *Prober) observeExchange(start uint64, sent, reply *wire.Packet, rawReply []byte, err, derr error) {
	end := p.tel.Ticks()
	ev := probeEvent(end, sent, reply, rawReply, err, derr)
	if ev.Err == ErrNone {
		p.hReplyTTL.Observe(uint64(ev.ReplyTTL))
	}
	if p.tel.HasRecorder() {
		// Render the recorder line into prober-owned scratch (copied into
		// recorder-owned storage by RecordBytes).
		p.evBuf = ev.AppendText(p.evBuf[:0])
		p.tel.RecordBytes("probe", p.evBuf)
	}
	if !p.tel.HasTracer() {
		return
	}
	outcome := ev.Outcome
	if ev.Err != ErrNone {
		outcome = ev.Err.String()
	}
	// Memoize the destination string: a trace probes one address many
	// times in a row.
	if ev.Dst != p.dstMemoAddr || p.dstMemo == "" {
		p.dstMemoAddr = ev.Dst
		p.dstMemo = ev.Dst.String()
	}
	p.tel.Complete("probe", start, end,
		"dst", p.dstMemo,
		"ttl", strconv.FormatUint(uint64(ev.TTL), 10),
		"outcome", outcome)
}

// classify maps a decoded reply onto a Result, verifying it answers our probe
// (echo ID match, or embedded-quote destination match for ICMP errors).
func (p *Prober) classify(sent, reply *wire.Packet, dst ipv4.Addr) Result {
	switch {
	case reply.ICMP != nil && reply.ICMP.Type == wire.ICMPEchoReply:
		if sent.ICMP == nil || reply.ICMP.ID != sent.ICMP.ID || reply.ICMP.Seq != sent.ICMP.Seq {
			return Result{}
		}
		return Result{Kind: EchoReply, From: reply.IP.Src, Recorded: wire.RecordedRoute(reply.IP.Options), IPID: reply.IP.ID}
	case reply.ICMP != nil && reply.ICMP.IsError():
		orig, _, err := reply.ICMP.EmbeddedOriginal()
		if err != nil || orig.Dst != dst || orig.Src != p.src {
			return Result{}
		}
		// The quoted header carries the record-route stamps accumulated up
		// to the point where the error was generated.
		recorded := wire.RecordedRoute(orig.Options)
		switch {
		case reply.ICMP.Type == wire.ICMPTimeExceeded:
			return Result{Kind: TTLExceeded, From: reply.IP.Src, Recorded: recorded, IPID: reply.IP.ID}
		case reply.ICMP.Type == wire.ICMPDestUnreach && reply.ICMP.Code == wire.CodePortUnreach:
			return Result{Kind: PortUnreachable, From: reply.IP.Src, Recorded: recorded, IPID: reply.IP.ID}
		case reply.ICMP.Type == wire.ICMPDestUnreach:
			return Result{Kind: HostUnreachable, From: reply.IP.Src, Recorded: recorded, IPID: reply.IP.ID}
		}
		return Result{}
	case reply.TCP != nil && reply.TCP.Flags&wire.TCPFlagRST != 0:
		if sent.TCP == nil || reply.TCP.DstPort != sent.TCP.SrcPort {
			return Result{}
		}
		return Result{Kind: TCPReset, From: reply.IP.Src, IPID: reply.IP.ID}
	}
	return Result{}
}
