// Package collect is tracenet's parallel multi-destination collection
// engine: a campaign traces many destinations concurrently from one vantage
// point, shares subnet explorations and single probes between workers
// through single-flight memos, and merges everything into one deterministic
// subnet-level topology.
//
// The paper collects its datasets by running tracenet against thousands of
// destinations (§4); doing that serially re-explores every backbone subnet
// once per destination that crosses it. The campaign engine removes both
// costs: a worker pool overlaps traces in wall-clock time, the shared cache
// (internal/collect.Cache) makes each distinct hop context's subnet
// exploration happen exactly once across the whole campaign, and the probe
// memo (probe.Memo) puts each distinct (destination, TTL) probe on the wire
// once — the Doubletree stop-set idea applied to subnet exploration and to
// single probes. A memo hit replays the packets its first sender spent into
// the asker's accounting, so every probe count the campaign renders is what
// the asker would have spent alone; only Stats.WireProbes falls.
//
// Determinism contract: on a clean deterministic substrate (netsim without
// loss, faults, rate limits, or per-packet ECMP; no retries with jitter; no
// breaker), a campaign's merged topology, report rendering, checkpoint,
// wire-probe total and metrics exposition are byte-identical at any
// Parallel value. Only scheduling-dependent artifacts — span timestamps in
// the trace output, per-target position/explore probe attribution — vary;
// everything the campaign renders is derived from schedule-independent
// quantities.
package collect

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"tracenet/internal/core"
	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// Config tunes one campaign.
type Config struct {
	// ID is an optional stable campaign identity. When set it labels every
	// tracenet_campaign_* metric family with ("campaign", ID), appears in the
	// Progress snapshot and the checkpoint file, and prefixes stall incidents
	// — so several campaigns sharing one process (the daemon case) stay
	// distinguishable in /metrics, /campaigns, and the flight recorder.
	// Empty keeps the unlabeled single-campaign exposition byte-for-byte.
	ID string
	// Targets are the destinations to trace, in input order. The report
	// preserves this order regardless of which worker traced what.
	Targets []ipv4.Addr
	// Parallel is the worker count; <= 1 means sequential.
	Parallel int
	// Budget caps the campaign's total wire packets across all workers
	// (0 = unlimited). When it is exhausted mid-trace the trace ends with a
	// budget status, no further targets are started, and the remainder are
	// marked skipped — the probe layer's atomic reservation guarantees the
	// cap is never overspent.
	Budget uint64
	// BudgetParent, when set, chains the campaign budget under it: every
	// wire packet is charged to both, and the campaign stops when either
	// runs out. The daemon points this at the submitting tenant's aggregate
	// budget so no set of campaigns can overspend the tenant's allowance.
	BudgetParent *probe.SharedBudget
	// DisableCache runs the campaign without any cross-target sharing: no
	// shared subnet cache and no probe memo, so every target re-explores
	// its whole path and pays for every probe on the wire (the
	// independent-traces baseline the probes-saved accounting is measured
	// against). A campaign of one target never builds either.
	DisableCache bool

	// Digest identifies what the campaign collects: daemon.Spec.Resolve
	// sets it from the resolved spec's collection fields. The checkpoint
	// journals it, and a resume under another digest fails with
	// ErrCheckpointMismatch.
	Digest string

	// Session configures each per-target session. Its Shared field is
	// overwritten by the campaign.
	Session core.Config
	// Probe configures each per-target prober. Its SharedBudget, Activity,
	// Memo and Telemetry fields are overwritten by the campaign (with the
	// campaign budget, Progress.Activity, the campaign's probe memo and
	// Telemetry below); leave retries/breaker unset for deterministic
	// campaigns.
	Probe probe.Options
	// Dial builds the prober a worker uses for one target, from the options
	// the campaign finished assembling — typically netsim's PortFor plus
	// probe.New. Called once per target, possibly from several goroutines.
	Dial func(opts probe.Options) (*probe.Prober, error)

	// Telemetry is the campaign's observability layer (may be nil). Workers
	// share it: registry counters are atomic; note that B/E span nesting in
	// the Chrome trace interleaves when Parallel > 1 (the campaign's own
	// events use duration-complete records, which are interleaving-safe).
	Telemetry *telemetry.Telemetry

	// Progress, when set, receives a live lock-free view of the campaign:
	// per-status target counts, in-flight and per-worker state, probes spent
	// vs the shared budget, cache effectiveness. The campaign also wires
	// Progress.Activity into every worker's prober so completed exchanges
	// feed stall detection.
	Progress *Progress

	// OnTargetDone, when set, is invoked once per target row as it completes
	// (including resumed rows, from the coordinator). Calls may arrive
	// concurrently from several workers; the callback must synchronize
	// itself. Completion ORDER is schedule-dependent — deterministic
	// consumers must render only their own call count, not the row content.
	OnTargetDone func(TargetResult)

	// Resume seeds the campaign from its own checkpoint: journaled targets
	// are not re-traced — each row is rebuilt from its journaled hop path
	// into a StatusResumed result that the report merges like a traced row —
	// the hop contexts those paths grew subnets at are served from the
	// shared cache, and the journaled probe memo answers the probes the
	// interrupted run already sent. On a clean substrate the resumed
	// campaign's report, checkpoint and wire-probe total (summed with the
	// interrupted run's) equal the uninterrupted run's. A checkpoint from
	// another campaign or spec fails the run with ErrCheckpointMismatch.
	Resume *Checkpoint
}

// TargetStatus classifies one target's outcome.
type TargetStatus string

const (
	// StatusDone: the trace ran to completion (reached or not).
	StatusDone TargetStatus = "done"
	// StatusBreaker: the trace ended without reaching the destination while
	// the circuit breaker was skipping probes — the terminating silence was
	// locally manufactured, so the partial result is kept but the target is
	// NOT recorded done; a resume (fresh breaker) retries it.
	StatusBreaker TargetStatus = "breaker"
	// StatusResumed: the checkpoint already contained this target; the row
	// carries the Result it journaled, and the report renders it as the done
	// row it was.
	StatusResumed TargetStatus = "resumed"
	// StatusBudget: the campaign budget ran out mid-trace; partial result.
	StatusBudget TargetStatus = "budget"
	// StatusSkipped: never started (budget/breaker backpressure or cancel).
	StatusSkipped TargetStatus = "skipped"
	// StatusFailed: the trace aborted on a non-recoverable error.
	StatusFailed TargetStatus = "failed"
)

// TargetResult is one target's row in the campaign report. The report
// renders only the Result's schedule-independent fields (Reached, the hop
// and subnet counts, TraceProbes); the rest carries schedule-dependent
// detail (probe phase splits, shared-hop marks) for programmatic consumers
// that know the caveats.
type TargetResult struct {
	Dst    ipv4.Addr
	Status TargetStatus
	// Note carries the skip reason or abort error text.
	Note string
	// Result is the per-target session result (nil when not traced). A
	// resumed row carries the one rebuilt from its journaled path, whose
	// counts of work the resumed run did not do — PositionProbes,
	// ExploreProbes, DefenseProbes, Recovered, Quarantined — are zero.
	Result *core.Result
}

// Run executes a campaign: dispatch every target to the worker pool, collect
// per-target results, and assemble the deterministic merged report. Workers
// stop picking up new targets when ctx is cancelled or the budget is
// exhausted; targets already being traced finish (a cancelled campaign still
// returns a well-formed partial report).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dial == nil {
		return nil, errors.New("collect: Config.Dial is required")
	}
	if len(cfg.Targets) == 0 {
		return nil, errors.New("collect: no targets")
	}
	parallel := cfg.Parallel
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(cfg.Targets) {
		parallel = len(cfg.Targets)
	}

	journaled, err := cfg.journal()
	if err != nil {
		return nil, err
	}
	c := &campaign{
		cfg:    cfg,
		tel:    cfg.Telemetry,
		budget: probe.NewChildBudget(cfg.Budget, cfg.BudgetParent),
		prog:   cfg.Progress,
	}
	// A stop set only saves probes across traces: one trace never repeats a
	// hop context, so for a lone target the cache would only add the
	// re-probes ClearCache forces before each owned growth.
	if !cfg.DisableCache && len(cfg.Targets) > 1 {
		c.cache = NewCache()
		c.memo = probe.NewMemo()
		if cfg.Resume != nil && cfg.Resume.Memo != nil {
			if err := c.memo.Seed(cfg.Resume.Memo); err != nil {
				return nil, err
			}
		}
	}
	results := make([]TargetResult, len(cfg.Targets))
	for idx, dst := range cfg.Targets {
		if res := journaled[dst]; res != nil {
			results[idx] = TargetResult{Dst: dst, Status: StatusResumed, Result: res}
			if c.cache != nil {
				c.cache.seed(res)
			}
		}
	}
	c.bindTelemetry()
	c.prog.start(cfg.ID, len(cfg.Targets), parallel, c.budget, c.cache)

	start := c.tel.Ticks()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range jobs {
				c.collectOne(ctx, w, cfg.Targets[idx], &results[idx])
				if cfg.OnTargetDone != nil {
					cfg.OnTargetDone(results[idx])
				}
			}
		}(w)
	}
	for idx := range cfg.Targets {
		if results[idx].Status == StatusResumed {
			c.prog.targetDone(results[idx])
			if cfg.OnTargetDone != nil {
				cfg.OnTargetDone(results[idx])
			}
			continue
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	if c.tel.HasTracer() {
		c.tel.Complete("campaign", start, c.tel.Ticks(),
			"targets", strconv.Itoa(len(cfg.Targets)),
			"parallel", strconv.Itoa(parallel))
	}

	rep := c.buildReport(results)
	invariant.Assertf(cfg.Budget == 0 || rep.Stats.WireProbes <= cfg.Budget,
		"collect: campaign overspent budget: %d of %d wire probes",
		rep.Stats.WireProbes, cfg.Budget)
	c.exportStats(rep.Stats)
	c.prog.finish(rep)
	return rep, nil
}

// campaign is the running state shared by the coordinator and its workers.
type campaign struct {
	cfg    Config
	tel    *telemetry.Telemetry
	budget *probe.SharedBudget
	cache  *Cache      // nil when the shared cache is disabled
	memo   *probe.Memo // nil exactly when cache is
	prog   *Progress   // nil when no one is watching; all methods nil-safe

	wireProbes atomic.Uint64
	memoHits   atomic.Uint64

	cTargets  map[TargetStatus]*telemetry.Counter
	cHits     *telemetry.Counter
	cMisses   *telemetry.Counter
	cSaved    *telemetry.Counter
	cProbes   *telemetry.Counter
	gInflight *telemetry.Gauge
}

// metricLabels appends the ("campaign", ID) label pair when the campaign has
// an identity, so concurrent campaigns sharing one registry get distinct
// series instead of adding into each other's.
func (c *campaign) metricLabels(kv ...string) []string {
	if c.cfg.ID != "" {
		kv = append(kv, "campaign", c.cfg.ID)
	}
	return kv
}

// bindTelemetry registers the campaign metric families up front so a
// campaign's exposition always lists the same series, whatever happens.
func (c *campaign) bindTelemetry() {
	c.cTargets = make(map[TargetStatus]*telemetry.Counter)
	for _, st := range []TargetStatus{StatusDone, StatusResumed, StatusBudget, StatusSkipped, StatusFailed} {
		c.cTargets[st] = c.tel.Counter("tracenet_campaign_targets_total",
			c.metricLabels("status", string(st))...)
	}
	c.cHits = c.tel.Counter("tracenet_campaign_cache_hits_total", c.metricLabels()...)
	c.cMisses = c.tel.Counter("tracenet_campaign_cache_misses_total", c.metricLabels()...)
	c.cSaved = c.tel.Counter("tracenet_campaign_probes_saved_total", c.metricLabels()...)
	c.cProbes = c.tel.Counter("tracenet_campaign_probes_total", c.metricLabels()...)
	// Live-observability families: the in-flight gauge breathes during the
	// run and settles back to 0 before exposition is rendered, and the stall
	// counter is bumped by the collect.Watchdog — both registered here so a
	// campaign's series list is the same whether or not they ever move.
	c.gInflight = c.tel.Gauge("tracenet_campaign_workers_inflight", c.metricLabels()...)
	c.tel.Counter("tracenet_campaign_stalls_total", c.metricLabels()...)
}

// backpressure reports why no new target may start, or "" to proceed.
func (c *campaign) backpressure(ctx context.Context) string {
	if ctx.Err() != nil {
		return "campaign cancelled"
	}
	if c.budget.Exhausted() {
		return "campaign budget exhausted"
	}
	return ""
}

// collectOne traces a single target with a fresh prober and session, filling
// in its report row. Every error is captured in the row — a failed target
// never takes the campaign down. The worker index w only feeds the progress
// view's per-worker state.
func (c *campaign) collectOne(ctx context.Context, w int, dst ipv4.Addr, out *TargetResult) {
	out.Dst = dst
	defer func() { c.prog.targetDone(*out) }()
	if reason := c.backpressure(ctx); reason != "" {
		out.Status = StatusSkipped
		out.Note = reason
		return
	}
	c.gInflight.Add(1)
	c.prog.workerStart(w, dst)
	defer func() {
		c.prog.workerIdle(w)
		c.gInflight.Add(-1)
	}()

	opts := c.cfg.Probe
	opts.SharedBudget = c.budget
	opts.Activity = c.prog.Activity()
	opts.Memo = c.memo
	opts.Telemetry = c.tel
	pr, err := c.cfg.Dial(opts)
	if err != nil {
		out.Status = StatusFailed
		out.Note = err.Error()
		return
	}

	scfg := c.cfg.Session
	scfg.Shared = nil
	if c.cache != nil {
		scfg.Shared = c.cache
	}
	sess := core.NewSession(pr, scfg)

	start := c.tel.Ticks()
	res, err := sess.Trace(dst)
	end := c.tel.Ticks()

	st := pr.Stats()
	c.wireProbes.Add(st.Wire())
	c.memoHits.Add(st.MemoHits)
	c.prog.addBreakerTrips(st.BreakerOpens)

	out.Result = res
	switch {
	case err == nil && res != nil && res.BreakerLimited:
		out.Status = StatusBreaker
		out.Note = "breaker-truncated trace; not recorded done"
	case err == nil:
		out.Status = StatusDone
	case errors.Is(err, probe.ErrBudgetExceeded):
		out.Status = StatusBudget
		out.Note = "campaign budget exhausted mid-trace"
	default:
		out.Status = StatusFailed
		out.Note = err.Error()
	}
	if c.tel.HasTracer() {
		c.tel.Complete("target", start, end,
			"dst", dst.String(),
			"status", string(out.Status))
	}
}

// buildReport assembles the deterministic campaign report from the
// per-target rows (already in input order).
func (c *campaign) buildReport(results []TargetResult) *Report {
	rep := &Report{ID: c.cfg.ID, Targets: results, digest: c.cfg.Digest}
	for i := range results {
		switch results[i].Status {
		case StatusDone:
			rep.Stats.Done++
		case StatusBreaker:
			rep.Stats.Breaker++
		case StatusResumed:
			rep.Stats.Resumed++
		case StatusBudget:
			rep.Stats.Budget++
		case StatusSkipped:
			rep.Stats.Skipped++
		case StatusFailed:
			rep.Stats.Failed++
		}
	}
	rep.Stats.Targets = len(results)
	if rep.Stats.Done+rep.Stats.Resumed < rep.Stats.Targets {
		// Probes are left to send: the checkpoint journals the memo.
		rep.memo = c.memo
	}
	rep.Stats.WireProbes = c.wireProbes.Load()
	rep.Stats.MemoHits = c.memoHits.Load()
	if c.cache != nil {
		rep.Stats.CacheHits = c.cache.Hits()
		rep.Stats.CacheMisses = c.cache.Misses()
		rep.Stats.ProbesSaved = c.cache.ProbesSaved()
	}
	rep.merge()
	return rep
}

// exportStats mirrors the final campaign accounting onto the metric registry.
func (c *campaign) exportStats(s Stats) {
	c.cTargets[StatusDone].Add(uint64(s.Done))
	c.cTargets[StatusResumed].Add(uint64(s.Resumed))
	c.cTargets[StatusBudget].Add(uint64(s.Budget))
	c.cTargets[StatusSkipped].Add(uint64(s.Skipped))
	c.cTargets[StatusFailed].Add(uint64(s.Failed))
	c.cHits.Add(s.CacheHits)
	c.cMisses.Add(s.CacheMisses)
	c.cSaved.Add(s.ProbesSaved)
	c.cProbes.Add(s.WireProbes)
}
