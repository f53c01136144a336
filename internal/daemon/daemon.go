package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tracenet/internal/collect"
	"tracenet/internal/groundtruth"
	"tracenet/internal/invariant"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/telemetry"
)

// Config assembles a Daemon.
type Config struct {
	// Spool is the journal directory (required; created if absent).
	Spool string
	// Tenants are the pre-configured tenant policies, materialized — metric
	// families included — at construction so exposition is byte-stable
	// whether or not a tenant has submitted yet.
	Tenants []TenantConfig
	// TenantDefaults is the policy applied to tenants not listed in Tenants
	// (Name is ignored). The zero value admits unknown tenants unlimited.
	TenantDefaults TenantConfig
	// Concurrent is how many campaigns run at once (default 1; 1 keeps
	// cross-campaign pacing deterministic, see TokenBucket).
	Concurrent int
	// StallWindow configures each campaign's stall watchdog (0 = default).
	StallWindow uint64
	// Clock overrides the scheduler clock (tests inject a ManualClock to
	// drive freshness deadlines). Default: the daemon's cumulative clock,
	// which advances by each finished campaign's virtual-tick span — so
	// scheduling time, like everything else, is derived from the seeds.
	Clock telemetry.Clock
}

// Submission errors the API maps to status codes.
var (
	// ErrNotAccepting: the daemon is not started yet, replaying its spool,
	// or draining.
	ErrNotAccepting = errors.New("daemon: not accepting submissions")
	// ErrBudgetExhausted: the tenant's aggregate probe budget is spent.
	ErrBudgetExhausted = errors.New("daemon: tenant probe budget exhausted")
	// ErrUnknownCampaign: no campaign with that ID.
	ErrUnknownCampaign = errors.New("daemon: unknown campaign")
	// ErrCampaignFinal: the campaign already reached a final state.
	ErrCampaignFinal = errors.New("daemon: campaign already final")
	// ErrSpecTooLarge: a spec body exceeds maxSpecBytes (1 MiB).
	ErrSpecTooLarge = errors.New("daemon: spec exceeds 1 MiB")
	// ErrCorruptSpool: Start found a spool file it cannot trust — one that
	// does not decode, or a spec that fails Validate. The wrapped error
	// names the file; the daemon refuses to start rather than guess.
	ErrCorruptSpool = errors.New("daemon: corrupt spool file")
)

// schedClock is the daemon's own deterministic scheduler clock: a monotone
// counter advanced by each finished campaign's virtual-tick span.
type schedClock struct {
	ticks atomic.Uint64
}

func (c *schedClock) Ticks() uint64    { return c.ticks.Load() }
func (c *schedClock) advance(d uint64) { c.ticks.Add(d) }
func (c *schedClock) restore(v uint64) { c.ticks.Store(v) }

// campaignState is one campaign's in-memory record, mirrored to the spool;
// the scheduler's queue holds the records of the campaigns waiting to run.
type campaignState struct {
	id     string
	seq    uint64 // admission order, the FIFO key within a priority
	rescan int    // the re-scan generation (0 = the original submission)
	tenant *tenantState
	spec   *Spec

	// Mutable fields below are guarded by the daemon mutex. finish keeps
	// the final snapshot and drops resume, prog, wd, tel, ctx and cancel.
	status  string
	errText string
	// notBefore is the freshness deadline in scheduler ticks: the campaign
	// may not run until the daemon clock reaches it (0 = at once). Re-scan
	// generations are deferred this way.
	notBefore uint64
	// resume carries an interrupted campaign's checkpoint into its resumed
	// run: its rows restore the completed targets' traces, and their hop
	// contexts seed the shared cache.
	resume     *collect.Checkpoint
	prog       *collect.Progress
	final      *collect.Snapshot
	wd         *collect.Watchdog
	tel        *telemetry.Telemetry // the campaign's clock domain
	ctx        context.Context
	cancel     context.CancelFunc
	userCancel bool
}

// Daemon is the tracenetd service core: queue, scheduler, tenant registry,
// and spool. Construct with New, then Start (which replays the spool),
// Attach to an obs.Server, and eventually Drain.
type Daemon struct {
	cfg     Config
	tel     *telemetry.Telemetry
	lg      *obs.Logger
	sp      spool
	tenants *tenants
	clock   *schedClock

	mu        sync.Mutex
	cond      *sync.Cond
	q         queue
	campaigns []*campaignState // admission (seq) order
	nextSeq   uint64
	started   bool
	replaying bool
	draining  bool
	wg        sync.WaitGroup

	gQueued      *telemetry.Gauge
	gRunning     *telemetry.Gauge
	gClock       *telemetry.Gauge
	cAccepted    *telemetry.Counter
	cDone        *telemetry.Counter
	cFailed      *telemetry.Counter
	cCancelled   *telemetry.Counter
	cInterrupted *telemetry.Counter
	cRescans     *telemetry.Counter
	cReplayed    *telemetry.Counter

	// testCampaignFinished fires after a campaign's outcome (and
	// artifacts) land in the spool, so tests wait on completion without
	// polling a clock.
	testCampaignFinished func(id, status string)
}

// New builds a Daemon over the spool directory. The daemon owns a fresh
// telemetry registry on its scheduler clock; retrieve it with Telemetry to
// mount the exposition server over the same registry.
func New(cfg Config) (*Daemon, error) {
	if cfg.Spool == "" {
		return nil, errors.New("daemon: Config.Spool is required")
	}
	if err := os.MkdirAll(cfg.Spool, 0o755); err != nil {
		return nil, err
	}
	if cfg.Concurrent < 1 {
		cfg.Concurrent = 1
	}
	d := &Daemon{cfg: cfg, sp: spool{dir: cfg.Spool}, clock: &schedClock{}, nextSeq: 1}
	d.cond = sync.NewCond(&d.mu)
	d.tel = telemetry.New(d.Clock())
	d.tenants = newTenants(d.tel, cfg.TenantDefaults, cfg.Tenants)

	// Register every tracenet_daemon_* family up front so the exposition
	// lists the same series from the first scrape to the last.
	d.gQueued = d.tel.Gauge("tracenet_daemon_queue_depth")
	d.gRunning = d.tel.Gauge("tracenet_daemon_campaigns_running")
	d.gClock = d.tel.Gauge("tracenet_daemon_clock_ticks")
	d.cAccepted = d.tel.Counter("tracenet_daemon_campaigns_total", "status", "accepted")
	d.cDone = d.tel.Counter("tracenet_daemon_campaigns_total", "status", "done")
	d.cFailed = d.tel.Counter("tracenet_daemon_campaigns_total", "status", "failed")
	d.cCancelled = d.tel.Counter("tracenet_daemon_campaigns_total", "status", "cancelled")
	d.cInterrupted = d.tel.Counter("tracenet_daemon_campaigns_total", "status", "interrupted")
	d.cRescans = d.tel.Counter("tracenet_daemon_rescans_total")
	d.cReplayed = d.tel.Counter("tracenet_daemon_spool_replayed_total")
	return d, nil
}

// Telemetry returns the daemon's registry/recorder bundle, clocked by the
// scheduler clock — hand it to obs.NewServer so /metrics exposes the
// daemon, tenant, and campaign families together.
func (d *Daemon) Telemetry() *telemetry.Telemetry { return d.tel }

// Clock returns the scheduler clock (the injected one, if any).
func (d *Daemon) Clock() telemetry.Clock {
	if d.cfg.Clock != nil {
		return d.cfg.Clock
	}
	return d.clock
}

// SetLogger installs the structured logger. Call before Start.
func (d *Daemon) SetLogger(lg *obs.Logger) { d.lg = lg }

func (d *Daemon) now() uint64 { return d.Clock().Ticks() }

// Start replays the spool — re-admitting queued campaigns and resuming
// interrupted ones — and launches the scheduler runners. Readiness checks
// report not-ready until the replay completes.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.started || d.replaying {
		d.mu.Unlock()
		return errors.New("daemon: already started")
	}
	d.replaying = true
	d.mu.Unlock()

	err := d.replay()

	d.mu.Lock()
	d.replaying = false
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.started = true
	d.gQueued.Set(int64(d.q.len()))
	n := d.cfg.Concurrent
	d.mu.Unlock()

	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go d.runner()
	}
	return nil
}

// replay reconstructs the daemon from the spool: the scheduler clock and ID
// sequence, every campaign's record, and the queue — queued entries
// re-admitted as they were, running/interrupted ones re-queued with their
// checkpoint, whose journaled paths let the resumed run render the report,
// checkpoint and eval an uninterrupted run renders.
func (d *Daemon) replay() error {
	var ds daemonState
	if d.sp.exists("tracenetd.json") {
		if err := d.sp.readJSON("tracenetd.json", &ds); err != nil {
			return err
		}
		d.clock.restore(ds.Clock)
		d.gClock.Set(int64(ds.Clock))
	}
	states, err := d.sp.loadStates()
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ds.NextSeq > d.nextSeq {
		d.nextSeq = ds.NextSeq
	}
	for _, st := range states {
		sp, err := d.sp.readSpec(st.ID + ".spec.json")
		if err != nil {
			return err
		}
		cs := &campaignState{
			id:        st.ID,
			seq:       st.Seq,
			rescan:    st.Rescan,
			tenant:    d.tenants.get(st.Tenant),
			spec:      sp,
			status:    st.Status,
			errText:   st.Error,
			notBefore: st.NotBefore,
		}
		if cs.seq >= d.nextSeq {
			d.nextSeq = cs.seq + 1
		}
		d.campaigns = append(d.campaigns, cs)
		switch st.Status {
		case stateQueued:
			d.q.push(cs)
			d.cReplayed.Inc()
		case stateRunning, stateInterrupted:
			// The previous process died (or drained) mid-campaign: resume
			// from its checkpoint, completed-target paths and all.
			if d.sp.exists(st.ID + ".checkpoint.json") {
				cp, err := d.sp.readCheckpoint(st.ID + ".checkpoint.json")
				if err != nil {
					return err
				}
				cs.resume = cp
			}
			cs.status = stateQueued
			d.q.push(cs)
			d.cReplayed.Inc()
			if err := d.sp.writeJSON(st.ID+".state.json", d.stateOf(cs)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stateOf snapshots a campaign record for the spool. Caller holds d.mu (or
// exclusive access during replay).
func (d *Daemon) stateOf(cs *campaignState) *State {
	return &State{
		ID:        cs.id,
		Seq:       cs.seq,
		Tenant:    cs.tenant.cfg.Name,
		Status:    cs.status,
		Priority:  cs.spec.Priority,
		Rescan:    cs.rescan,
		NotBefore: cs.notBefore,
		Error:     cs.errText,
	}
}

// persistDaemonState journals the scheduler clock and ID sequence.
func (d *Daemon) persistDaemonState() error {
	d.mu.Lock()
	ds := daemonState{Clock: d.clock.Ticks(), NextSeq: d.nextSeq}
	d.mu.Unlock()
	return d.sp.writeJSON("tracenetd.json", &ds)
}

// Submit validates and admits a campaign spec, journals it, and queues it.
// Returns the assigned campaign ID; a spec too large to journal fails with
// ErrSpecTooLarge.
func (d *Daemon) Submit(sp *Spec) (string, error) {
	if err := sp.Validate(); err != nil {
		return "", err
	}
	var spec bytes.Buffer
	if err := WriteSpec(&spec, sp); err != nil {
		return "", err
	}
	t := d.tenants.get(sp.Tenant)
	if t.budget.Exhausted() {
		t.cRejBudget.Inc()
		return "", fmt.Errorf("%w: tenant %s", ErrBudgetExhausted, sp.Tenant)
	}

	d.mu.Lock()
	if !d.started || d.draining {
		d.mu.Unlock()
		return "", ErrNotAccepting
	}
	seq := d.nextSeq
	d.nextSeq++
	cs := &campaignState{
		id:     fmt.Sprintf("c%04d", seq),
		seq:    seq,
		tenant: t,
		spec:   sp,
		status: stateQueued,
	}
	d.campaigns = append(d.campaigns, cs)
	st := d.stateOf(cs)
	d.mu.Unlock()

	if err := d.sp.writeFile(cs.id+".spec.json", spec.Bytes()); err != nil {
		return "", err
	}
	if err := d.sp.writeJSON(cs.id+".state.json", st); err != nil {
		return "", err
	}
	if err := d.persistDaemonState(); err != nil {
		return "", err
	}
	t.cAccepted.Inc()
	d.cAccepted.Inc()
	d.lg.Info("campaign accepted", "campaign", cs.id, "tenant", sp.Tenant)

	d.mu.Lock()
	d.q.push(cs)
	d.gQueued.Set(int64(d.q.len()))
	d.cond.Broadcast()
	d.mu.Unlock()
	return cs.id, nil
}

// Nudge wakes the scheduler so it re-evaluates freshness deadlines — for
// callers that advanced an injected Clock.
func (d *Daemon) Nudge() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Drain stops the daemon: submissions are refused, queued campaigns stay
// journaled for the next start, and running campaigns are cancelled — their
// in-flight targets finish, a checkpoint journaling the completed rows lands
// in the spool, and their state becomes interrupted. Returns once every
// runner has stopped, or when ctx expires.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	for _, cs := range d.campaigns {
		if cs.status == stateRunning && cs.cancel != nil {
			cs.cancel()
		}
	}
	d.cond.Broadcast()
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runner is one scheduler worker: pull the next runnable campaign, run it
// to its outcome, release the tenant slot, repeat until draining.
func (d *Daemon) runner() {
	defer d.wg.Done()
	for {
		cs := d.next()
		if cs == nil {
			return
		}
		d.runCampaign(cs)
		d.tenants.release(cs.tenant)
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// next blocks until a queued campaign is runnable (freshness deadline
// passed, tenant below its concurrency cap) or the daemon drains (nil). The
// tenant slot is acquired before returning.
func (d *Daemon) next() *campaignState {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.draining {
			return nil
		}
		if cs := d.q.pop(d.now(), d.tenants.hasSlot); cs != nil {
			if d.tenants.tryAcquire(cs.tenant) {
				d.gQueued.Set(int64(d.q.len()))
				return cs
			}
			d.q.push(cs) // lost the slot between pop and acquire; requeue
		}
		d.cond.Wait()
	}
}

// hasSlot reports whether the tenant may start another campaign.
func (ts *tenants) hasSlot(t *tenantState) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return t.cfg.MaxConcurrent == 0 || t.running < t.cfg.MaxConcurrent
}

// runCampaign executes one campaign end to end: resolve the spec into a
// fresh seeded substrate, run the collect engine under the tenant's budget
// and pacer, then land the outcome — artifacts, journal, accounting, and
// possibly the next re-scan generation — in the spool.
func (d *Daemon) runCampaign(cs *campaignState) {
	c, err := cs.spec.Resolve(cs.id)
	if err != nil {
		d.finish(cs, nil, nil, err)
		return
	}
	net := c.Net
	ccfg := c.Config
	ccfg.BudgetParent = cs.tenant.budget
	if cs.tenant.pacer != nil {
		ccfg.Probe.Pacer = cs.tenant.pacer
	}

	// The campaign's telemetry rides the fresh substrate's virtual clock but
	// shares the daemon's registry and flight recorder, so every campaign's
	// labeled series land in one exposition.
	ctel := telemetry.New(net)
	ctel.Registry = d.tel.Registry
	ctel.Recorder = d.tel.Recorder
	net.SetTelemetry(ctel)

	prog := collect.NewProgress()
	wd := collect.NewWatchdog(prog, ctel, d.cfg.StallWindow, cs.id)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ccfg.Telemetry = ctel
	ccfg.Progress = prog

	ccfg.OnTargetDone = func(r collect.TargetResult) {
		d.lg.Debug("target done", "campaign", cs.id, "dst", r.Dst.String(), "status", string(r.Status))
	}

	d.mu.Lock()
	ccfg.Resume = cs.resume
	cs.status = stateRunning
	cs.prog = prog
	cs.wd = wd
	cs.tel = ctel
	cs.ctx = ctx
	cs.cancel = cancel
	preCancelled := cs.userCancel || d.draining
	st := d.stateOf(cs)
	d.gRunning.Add(1)
	d.mu.Unlock()
	if preCancelled {
		cancel() // a Cancel raced the pop; land the campaign as cancelled
	}
	if err := d.sp.writeJSON(cs.id+".state.json", st); err != nil {
		d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
	}
	d.lg.Info("campaign started", "campaign", cs.id, "tenant", cs.tenant.cfg.Name,
		"targets", fmt.Sprint(len(ccfg.Targets)))

	startTick := net.Ticks()
	rep, err := collect.Run(ctx, ccfg)
	elapsed := net.Ticks() - startTick
	if d.cfg.Clock == nil {
		d.clock.advance(elapsed)
		d.gClock.Set(int64(d.clock.Ticks()))
	}

	d.mu.Lock()
	d.gRunning.Add(-1)
	d.mu.Unlock()
	d.finish(cs, c.Scenario.Topo, rep, err)
}

// finish lands a campaign's outcome: classify it, journal the checkpoint,
// write the artifacts a completed campaign owes, account the tenant's
// spend, enroll the next re-scan generation when the spec asks for one, and
// journal the advanced scheduler clock — every spool write before the
// outcome is announced.
// top is the campaign's topology, for the evaluation (nil when the spec
// never resolved).
func (d *Daemon) finish(cs *campaignState, top *netsim.Topology, rep *collect.Report, runErr error) {
	d.mu.Lock()
	status := stateDone
	switch {
	case runErr != nil:
		status = stateFailed
	case cs.ctx != nil && cs.ctx.Err() != nil:
		if cs.userCancel {
			status = stateCancelled
		} else {
			status = stateInterrupted
		}
	}
	d.mu.Unlock()

	if rep != nil {
		cs.tenant.charge(rep.Stats.WireProbes)
		if cap := cs.tenant.cfg.ProbeBudget; cap > 0 {
			invariant.Assertf(cs.tenant.budget.Used() <= cap,
				"daemon: tenant %s overspent aggregate budget: %d of %d",
				cs.tenant.cfg.Name, cs.tenant.budget.Used(), cap)
		}
		var cp bytes.Buffer
		if err := collect.WriteCheckpoint(&cp, rep.Checkpoint()); err == nil {
			if err := d.sp.writeFile(cs.id+".checkpoint.json", cp.Bytes()); err != nil {
				d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
			}
		}
	}
	if status == stateDone && rep != nil {
		// The report is Report.WriteTo with the campaign ID and tenant in
		// place of its leading "campaign: " ("campaign c0001 tenant a: 6
		// targets (done 6, ..."), the header perfbench's daemon workload
		// parses.
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "campaign %s tenant %s: ", cs.id, cs.tenant.cfg.Name)
		head := buf.Len()
		rep.WriteTo(&buf)
		report := buf.Bytes()
		report = append(report[:head], report[head+len("campaign: "):]...)
		if err := d.sp.writeFile(cs.id+".report.txt", report); err != nil {
			d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
		}
		if cs.spec.Eval && top != nil {
			truth := groundtruth.FromTopology(top, groundtruth.Options{})
			score := truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))
			var buf bytes.Buffer
			if err := score.WriteJSON(&buf); err == nil {
				if err := d.sp.writeFile(cs.id+".eval.json", buf.Bytes()); err != nil {
					d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
				}
			}
		}
	}
	// Publish the outcome only once its artifacts are in the spool: a client
	// that sees a final status can fetch the report it implies.
	d.mu.Lock()
	cs.status = status
	if runErr != nil {
		cs.errText = runErr.Error()
	}
	if cs.prog != nil {
		snap := cs.prog.Snapshot()
		cs.final = &snap
	}
	cs.resume, cs.prog, cs.wd, cs.tel, cs.ctx, cs.cancel = nil, nil, nil, nil, nil, nil
	st := d.stateOf(cs)
	d.mu.Unlock()
	if err := d.sp.writeJSON(cs.id+".state.json", st); err != nil {
		d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
	}

	cs.tenant.countOutcome(status)
	switch status {
	case stateDone:
		d.cDone.Inc()
	case stateFailed:
		d.cFailed.Inc()
	case stateCancelled:
		d.cCancelled.Inc()
	case stateInterrupted:
		d.cInterrupted.Inc()
	}
	d.lg.Info("campaign finished", "campaign", cs.id, "status", status)

	if status == stateDone && cs.spec.RescanInterval > 0 && cs.rescan < cs.spec.MaxRescans {
		d.enqueueRescan(cs)
	}
	if err := d.persistDaemonState(); err != nil {
		d.lg.Error("spool write failed", "campaign", cs.id, "err", err.Error())
	}
	if d.testCampaignFinished != nil {
		d.testCampaignFinished(cs.id, status)
	}
}

// enqueueRescan enrolls the next re-scan generation: a fresh campaign over
// the same spec, deferred until the freshness deadline on the scheduler
// clock.
func (d *Daemon) enqueueRescan(cs *campaignState) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return
	}
	gen := cs.rescan + 1
	seq := d.nextSeq
	d.nextSeq++
	next := &campaignState{
		id:        fmt.Sprintf("%s.r%d", baseID(cs.id), gen),
		seq:       seq,
		rescan:    gen,
		tenant:    cs.tenant,
		spec:      cs.spec,
		status:    stateQueued,
		notBefore: d.now() + cs.spec.RescanInterval,
	}
	d.campaigns = append(d.campaigns, next)
	d.q.push(next)
	d.gQueued.Set(int64(d.q.len()))
	st := d.stateOf(next)
	d.cond.Broadcast()
	d.mu.Unlock()

	d.cRescans.Inc()
	if err := d.sp.writeJSON(next.id+".spec.json", next.spec); err != nil {
		d.lg.Error("spool write failed", "campaign", next.id, "err", err.Error())
	}
	if err := d.sp.writeJSON(next.id+".state.json", st); err != nil {
		d.lg.Error("spool write failed", "campaign", next.id, "err", err.Error())
	}
	d.lg.Info("rescan enrolled", "campaign", next.id, "not_before", fmt.Sprint(next.notBefore))
}

// campaign looks up a campaign record by ID.
func (d *Daemon) campaign(id string) *campaignState {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, cs := range d.campaigns {
		if cs.id == id {
			return cs
		}
	}
	return nil
}

// Cancel cancels a campaign: a queued one is removed from the queue and
// journaled cancelled; a running one has its context cancelled (in-flight
// targets finish, then the campaign lands as cancelled). Returns the
// campaign's resulting status.
func (d *Daemon) Cancel(id string) (string, error) {
	d.mu.Lock()
	var cs *campaignState
	for _, c := range d.campaigns {
		if c.id == id {
			cs = c
			break
		}
	}
	if cs == nil {
		d.mu.Unlock()
		return "", ErrUnknownCampaign
	}
	switch cs.status {
	case stateQueued:
		if d.q.remove(id) == nil {
			// A runner popped the campaign but has not marked it running yet:
			// flag the cancel for runCampaign to honour once it has a context.
			cs.userCancel = true
			d.mu.Unlock()
			d.lg.Info("campaign cancelling", "campaign", id)
			return stateRunning, nil
		}
		d.gQueued.Set(int64(d.q.len()))
		cs.status = stateCancelled
		st := d.stateOf(cs)
		d.mu.Unlock()
		if err := d.sp.writeJSON(id+".state.json", st); err != nil {
			d.lg.Error("spool write failed", "campaign", id, "err", err.Error())
		}
		cs.tenant.countOutcome(stateCancelled)
		d.cCancelled.Inc()
		d.lg.Info("campaign cancelled", "campaign", id)
		if d.testCampaignFinished != nil {
			d.testCampaignFinished(id, stateCancelled)
		}
		return stateCancelled, nil
	case stateRunning:
		cs.userCancel = true
		cancel := cs.cancel
		d.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		d.lg.Info("campaign cancelling", "campaign", id)
		return stateRunning, nil
	default:
		st := cs.status
		d.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrCampaignFinal, id, st)
	}
}

// StatusDoc is a campaign's API status document.
type StatusDoc struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Name     string `json:"name,omitempty"`
	Status   string `json:"status"`
	Priority int    `json:"priority,omitempty"`
	Rescan   int    `json:"rescan,omitempty"`
	// NotBefore is a deferred campaign's freshness deadline in scheduler
	// ticks.
	NotBefore uint64 `json:"not_before,omitempty"`
	Error     string `json:"error,omitempty"`
	// Progress is the live collect snapshot, present once the campaign has
	// started running; a finished campaign serves its final snapshot.
	Progress *collect.Snapshot `json:"progress,omitempty"`
}

// docOf renders a campaign's status document. Caller holds d.mu.
func docOf(cs *campaignState) StatusDoc {
	doc := StatusDoc{
		ID:        cs.id,
		Tenant:    cs.tenant.cfg.Name,
		Name:      cs.spec.Name,
		Status:    cs.status,
		Priority:  cs.spec.Priority,
		Rescan:    cs.rescan,
		NotBefore: cs.notBefore,
		Error:     cs.errText,
	}
	switch {
	case cs.final != nil:
		snap := *cs.final
		doc.Progress = &snap
	case cs.prog != nil:
		snap := cs.prog.Snapshot()
		doc.Progress = &snap
	}
	return doc
}

// Status returns one campaign's status document.
func (d *Daemon) Status(id string) (StatusDoc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, cs := range d.campaigns {
		if cs.id == id {
			return docOf(cs), nil
		}
	}
	return StatusDoc{}, ErrUnknownCampaign
}

// List returns every campaign's status document in admission order.
func (d *Daemon) List() []StatusDoc {
	d.mu.Lock()
	defer d.mu.Unlock()
	docs := make([]StatusDoc, 0, len(d.campaigns))
	for _, cs := range d.campaigns {
		docs = append(docs, docOf(cs))
	}
	return docs
}

// Attach mounts the daemon on an observability server: the /api/v1/
// endpoints join the mux, readiness tracks the scheduler lifecycle and
// every running campaign's stall watchdog, and /campaigns lists running
// campaigns in admission order.
func (d *Daemon) Attach(srv *obs.Server) {
	srv.Mount("/api/v1/", d.apiHandler())
	srv.AddCheckSource(d.readinessChecks)
	srv.AddCampaignSource(d.liveCampaigns)
}

// readinessChecks derives the daemon's dynamic /readyz contribution.
func (d *Daemon) readinessChecks() []obs.Check {
	d.mu.Lock()
	defer d.mu.Unlock()
	var checks []obs.Check
	switch {
	case d.replaying:
		checks = append(checks, obs.Check{Name: "spool-replay", Probe: func() error {
			return errors.New("replaying spool")
		}})
	case !d.started:
		checks = append(checks, obs.Check{Name: "scheduler", Probe: func() error {
			return errors.New("scheduler not started")
		}})
	case d.draining:
		checks = append(checks, obs.Check{Name: "scheduler", Probe: func() error {
			return errors.New("draining")
		}})
	default:
		checks = append(checks, obs.Check{Name: "scheduler", Probe: func() error { return nil }})
	}
	for _, cs := range d.campaigns {
		if cs.status == stateRunning && cs.wd != nil {
			checks = append(checks, obs.StallCheck(cs.wd, cs.tel))
		}
	}
	return checks
}

// liveCampaigns yields the running campaigns, in admission order, for the
// /campaigns endpoint.
func (d *Daemon) liveCampaigns() []obs.CampaignEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var entries []obs.CampaignEntry
	for _, cs := range d.campaigns {
		if cs.status == stateRunning && cs.prog != nil {
			entries = append(entries, obs.CampaignEntry{Name: cs.id, Prog: cs.prog})
		}
	}
	return entries
}
