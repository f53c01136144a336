package collect

import (
	"fmt"
	"sync/atomic"

	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// Progress is a live, lock-free view of a running campaign, built for the
// observability plane (internal/obs) to poll while workers are busy. Every
// field the workers touch is an atomic, so publishing progress adds no locks
// — and no allocations — to the per-target or per-probe paths; readers get a
// consistent-enough snapshot without ever blocking a worker.
//
// Determinism contract: Snapshot deliberately exposes only
// schedule-independent quantities once the campaign has finished, so a
// rendered snapshot of a completed same-seed campaign is byte-identical at
// any Parallel value. While the campaign is still running the snapshot
// additionally carries inherently schedule-dependent live detail (in-flight
// counts, per-worker state); that detail disappears from the final snapshot
// rather than poisoning it. The last-activity tick is never exposed in a
// snapshot at all — it feeds the stall Watchdog only.
//
// All methods are safe on a nil *Progress, so the campaign engine calls them
// unconditionally.
type Progress struct {
	targets  atomic.Int64
	inflight atomic.Int64
	done     atomic.Int64
	breaker  atomic.Int64
	resumed  atomic.Int64
	budget   atomic.Int64
	skipped  atomic.Int64
	failed   atomic.Int64

	subnetObs    atomic.Uint64
	distinct     atomic.Int64
	breakerTrips atomic.Uint64
	started      atomic.Bool
	finished     atomic.Bool

	activity probe.Activity

	// bind holds the references fixed at campaign start. It is published
	// atomically because the observability server may snapshot a Progress
	// before the campaign it was handed to has started.
	bind atomic.Pointer[progressBinding]
}

// ID returns the campaign identity bound at start ("" for anonymous
// campaigns, and always before the campaign starts).
func (p *Progress) ID() string {
	if p == nil {
		return ""
	}
	if b := p.bind.Load(); b != nil {
		return b.id
	}
	return ""
}

type progressBinding struct {
	id      string
	budget  *probe.SharedBudget
	cache   *Cache
	workers []atomic.Uint64 // packed worker cells, see packWorker
}

// Worker cells pack (state, target) into one uint64 so a worker's transition
// from idle to tracing is a single atomic store: bit 32 is the busy flag, the
// low 32 bits are the target address.
const workerBusy = uint64(1) << 32

func packWorker(dst ipv4.Addr) uint64 { return workerBusy | uint64(dst) }

// NewProgress creates a Progress ready to hand to Config.Progress and, via
// Activity, to the probe layer.
func NewProgress() *Progress { return &Progress{} }

// Activity returns the campaign-wide probe liveness meter wired into every
// worker's prober; nil on a nil Progress.
func (p *Progress) Activity() *probe.Activity {
	if p == nil {
		return nil
	}
	return &p.activity
}

// start binds the campaign's shared state and publishes the worker table.
// Called once by Run before any worker launches.
func (p *Progress) start(id string, targets, parallel int, budget *probe.SharedBudget, cache *Cache) {
	if p == nil {
		return
	}
	p.targets.Store(int64(targets))
	p.bind.Store(&progressBinding{
		id:      id,
		budget:  budget,
		cache:   cache,
		workers: make([]atomic.Uint64, parallel),
	})
	p.started.Store(true)
}

// workerStart marks worker w as tracing dst.
func (p *Progress) workerStart(w int, dst ipv4.Addr) {
	if p == nil {
		return
	}
	p.inflight.Add(1)
	if b := p.bind.Load(); b != nil && w >= 0 && w < len(b.workers) {
		b.workers[w].Store(packWorker(dst))
	}
}

// workerIdle marks worker w as between targets.
func (p *Progress) workerIdle(w int) {
	if p == nil {
		return
	}
	if b := p.bind.Load(); b != nil && w >= 0 && w < len(b.workers) {
		b.workers[w].Store(0)
	}
	p.inflight.Add(-1)
}

// targetDone accounts one finished target row (including resumed and skipped
// rows, which never reached a worker).
func (p *Progress) targetDone(res TargetResult) {
	if p == nil {
		return
	}
	switch res.Status {
	case StatusDone:
		p.done.Add(1)
	case StatusBreaker:
		p.breaker.Add(1)
	case StatusResumed:
		p.resumed.Add(1)
	case StatusBudget:
		p.budget.Add(1)
	case StatusSkipped:
		p.skipped.Add(1)
	case StatusFailed:
		p.failed.Add(1)
	}
	if res.Result != nil {
		p.subnetObs.Add(uint64(len(res.Result.Subnets)))
	}
}

// addBreakerTrips accumulates circuit-breaker opens observed by one target's
// prober.
func (p *Progress) addBreakerTrips(n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.breakerTrips.Add(n)
}

// finish seals the progress with the campaign's deterministic final report.
func (p *Progress) finish(rep *Report) {
	if p == nil {
		return
	}
	p.distinct.Store(int64(len(rep.Subnets())))
	p.finished.Store(true)
}

// Started reports whether a campaign has bound this Progress yet.
func (p *Progress) Started() bool { return p != nil && p.started.Load() }

// Finished reports whether the campaign has completed.
func (p *Progress) Finished() bool { return p != nil && p.finished.Load() }

// WireProbes returns the live count of completed wire exchanges.
func (p *Progress) WireProbes() uint64 {
	if p == nil {
		return 0
	}
	return p.activity.Probes()
}

// LastActivityTick returns the tick of the most recent completed exchange —
// schedule-dependent, for stall detection only (see Watchdog).
func (p *Progress) LastActivityTick() uint64 {
	if p == nil {
		return 0
	}
	return p.activity.LastTick()
}

// BreakerTrips returns the live circuit-breaker open count.
func (p *Progress) BreakerTrips() uint64 {
	if p == nil {
		return 0
	}
	return p.breakerTrips.Load()
}

// BudgetExhausted reports whether the campaign's shared probe budget has run
// out (false when unlimited or not yet started).
func (p *Progress) BudgetExhausted() bool {
	if p == nil {
		return false
	}
	b := p.bind.Load()
	return b != nil && b.budget.Exhausted()
}

// WorkerSnapshot is one worker's live state in a Snapshot.
type WorkerSnapshot struct {
	ID     int    `json:"id"`
	State  string `json:"state"` // "idle" | "tracing"
	Target string `json:"target,omitempty"`
}

// Snapshot is a JSON-stable progress view; see Progress for which fields are
// schedule-independent. Field order is fixed by the struct, so rendering is
// deterministic.
type Snapshot struct {
	// ID is the campaign identity (omitted for anonymous campaigns, which
	// keeps the single-campaign /campaigns rendering byte-for-byte).
	ID       string `json:"id,omitempty"`
	Started  bool   `json:"started"`
	Finished bool   `json:"finished"`
	Targets  int64  `json:"targets"`
	Done     int64  `json:"done"`
	Breaker  int64  `json:"breaker"`
	Resumed  int64  `json:"resumed"`
	Budget   int64  `json:"budget"`
	Skipped  int64  `json:"skipped"`
	Failed   int64  `json:"failed"`

	WireProbes   uint64 `json:"wire_probes"`
	BreakerTrips uint64 `json:"breaker_trips"`
	// BudgetCap/BudgetRemaining describe the shared probe budget; both are
	// omitted for unlimited campaigns.
	BudgetCap       uint64 `json:"budget_cap,omitempty"`
	BudgetRemaining uint64 `json:"budget_remaining,omitempty"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	ProbesSaved uint64 `json:"probes_saved"`
	// CacheHitRate is hits/(hits+misses), 0 before any lookup.
	CacheHitRate float64 `json:"cache_hit_rate"`

	// SubnetObservations counts per-target subnet sightings (a subnet crossed
	// by k targets counts k times) — schedule-independent, available live.
	SubnetObservations uint64 `json:"subnet_observations"`
	// DistinctSubnets is the merged report's subnet count, set at completion.
	DistinctSubnets int64 `json:"distinct_subnets"`

	// InFlight and Workers describe live scheduling state; both drain to
	// zero/absent once the campaign finishes, keeping the final snapshot
	// parallelism-independent.
	InFlight int64            `json:"in_flight"`
	Workers  []WorkerSnapshot `json:"workers,omitempty"`
}

// Snapshot assembles the current progress view. Safe at any time, including
// before start and after finish.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Started:            p.started.Load(),
		Finished:           p.finished.Load(),
		Targets:            p.targets.Load(),
		Done:               p.done.Load(),
		Breaker:            p.breaker.Load(),
		Resumed:            p.resumed.Load(),
		Budget:             p.budget.Load(),
		Skipped:            p.skipped.Load(),
		Failed:             p.failed.Load(),
		WireProbes:         p.activity.Probes(),
		BreakerTrips:       p.breakerTrips.Load(),
		SubnetObservations: p.subnetObs.Load(),
		DistinctSubnets:    p.distinct.Load(),
	}
	b := p.bind.Load()
	if b == nil {
		return s
	}
	s.ID = b.id
	if total := b.budget.Cap(); total > 0 {
		s.BudgetCap = total
		s.BudgetRemaining = b.budget.Remaining()
	}
	if b.cache != nil {
		s.CacheHits = b.cache.Hits()
		s.CacheMisses = b.cache.Misses()
		s.ProbesSaved = b.cache.ProbesSaved()
		if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
			s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
		}
	}
	if !s.Finished {
		s.InFlight = p.inflight.Load()
		s.Workers = make([]WorkerSnapshot, len(b.workers))
		for i := range b.workers {
			cell := b.workers[i].Load()
			s.Workers[i] = WorkerSnapshot{ID: i, State: "idle"}
			if cell&workerBusy != 0 {
				s.Workers[i].State = "tracing"
				s.Workers[i].Target = ipv4.Addr(uint32(cell)).String()
			}
		}
	}
	return s
}

// DefaultStallWindow is the Watchdog window in virtual ticks when none is
// configured: generously beyond any single exchange (netsim advances a few
// ticks per injection; backoff waits run to at most a few hundred), so only a
// genuinely wedged campaign — every worker stuck skipping or waiting without
// completing exchanges — trips it.
const DefaultStallWindow = 4096

// Watchdog detects campaign stalls: a started, unfinished campaign where no
// wire exchange has completed within the configured window of virtual ticks.
// It is poll-driven — Check is called by whoever holds a current tick (the
// /readyz health check, the CLI's progress loop, tests) — because a timer
// goroutine would need the wall clock, which the determinism contract bans
// from the measurement path.
//
// On the first Check that observes a stall the watchdog files exactly one
// flight-recorder incident and increments tracenet_campaign_stalls_total;
// the episode re-arms once activity resumes, so an on-off-on stall pattern
// files one incident per episode, not one per poll.
type Watchdog struct {
	prog    *Progress
	tel     *telemetry.Telemetry
	window  uint64
	id      string
	cStalls *telemetry.Counter
	stalled atomic.Bool
}

// NewWatchdog builds a stall watchdog over the progress of campaign id (see
// Config.ID; "" for an anonymous campaign, the CLI's), with window 0
// selecting DefaultStallWindow. For an identified campaign the stall counter
// carries the ("campaign", id) label and stall incidents name the campaign,
// so one watchdog per campaign — the daemon's arrangement — files
// attributable evidence instead of colliding on shared series. The stalls
// counter is resolved up front so polling never pays a by-name registry
// lookup.
func NewWatchdog(prog *Progress, tel *telemetry.Telemetry, window uint64, id string) *Watchdog {
	if window == 0 {
		window = DefaultStallWindow
	}
	labels := []string{}
	if id != "" {
		labels = append(labels, "campaign", id)
	}
	return &Watchdog{
		prog:    prog,
		tel:     tel,
		window:  window,
		id:      id,
		cStalls: tel.Counter("tracenet_campaign_stalls_total", labels...),
	}
}

// Window returns the configured stall window in ticks.
func (w *Watchdog) Window() uint64 {
	if w == nil {
		return 0
	}
	return w.window
}

// ID returns the campaign identity this watchdog labels its evidence with
// ("" for the anonymous single-campaign arrangement).
func (w *Watchdog) ID() string {
	if w == nil {
		return ""
	}
	return w.id
}

// Check evaluates the stall condition at tick now and reports whether the
// campaign is currently considered stalled. Nil-safe.
func (w *Watchdog) Check(now uint64) bool {
	if w == nil || !w.prog.Started() || w.prog.Finished() {
		return false
	}
	last := w.prog.LastActivityTick()
	if now < last || now-last < w.window {
		w.stalled.Store(false) // activity resumed; re-arm the episode
		return false
	}
	if w.stalled.CompareAndSwap(false, true) {
		w.cStalls.Inc()
		subject := "campaign-stall"
		if w.id != "" {
			subject = "campaign-stall " + w.id
		}
		w.tel.Incident(fmt.Sprintf(
			"%s: no exchange completed since tick %d (now %d, window %d)",
			subject, last, now, w.window))
	}
	return true
}
