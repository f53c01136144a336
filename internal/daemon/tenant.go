package daemon

import (
	"sync"

	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// TenantConfig is one tenant's resource policy. The zero value grants
// everything: no concurrency cap, no aggregate budget, no rate limit.
type TenantConfig struct {
	Name string `json:"name"`
	// MaxConcurrent caps how many of the tenant's campaigns run at once
	// (0 = unlimited); submissions beyond the cap queue, they are not
	// rejected.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// ProbeBudget is the tenant's aggregate wire-probe allowance across all
	// of its campaigns, for the daemon's lifetime (0 = unlimited). Every
	// campaign budget chains under it (probe.NewChildBudget), so the
	// aggregate can never be overspent however many campaigns race.
	ProbeBudget uint64 `json:"probe_budget,omitempty"`
	// RateInterval and RateBurst configure the tenant's token-bucket probe
	// pacer, shared across all of its campaigns: steady state one wire send
	// per RateInterval virtual ticks, with RateBurst sends allowed
	// back-to-back. RateInterval 0 disables pacing.
	RateInterval uint64 `json:"rate_interval,omitempty"`
	RateBurst    uint64 `json:"rate_burst,omitempty"`
}

// tenantState is one tenant's live accounting: the shared budget root and
// pacer handed to every campaign, the running-campaign count, and the
// pre-resolved tracenet_tenant_* metric handles.
type tenantState struct {
	cfg    TenantConfig
	budget *probe.SharedBudget // aggregate root; campaigns chain under it
	pacer  *probe.TokenBucket  // nil when pacing is disabled

	running int // campaigns currently running; guarded by tenants.mu

	gRunning    *telemetry.Gauge
	gBudgetLeft *telemetry.Gauge
	cProbes     *telemetry.Counter
	cDone       *telemetry.Counter
	cFailed     *telemetry.Counter
	cCancelled  *telemetry.Counter
	cInterrupt  *telemetry.Counter
	cAccepted   *telemetry.Counter
	cRejBudget  *telemetry.Counter
}

// tenants is the tenant registry: configured tenants are materialized at
// daemon start (so their metric families render from the first exposition),
// unknown tenants are admitted on first submission under the default policy.
type tenants struct {
	tel      *telemetry.Telemetry
	defaults TenantConfig

	mu   sync.Mutex
	list []*tenantState // creation order; looked up linearly (tenants are few)
}

func newTenants(tel *telemetry.Telemetry, defaults TenantConfig, configured []TenantConfig) *tenants {
	ts := &tenants{tel: tel, defaults: defaults}
	for _, cfg := range configured {
		ts.materialize(cfg)
	}
	return ts
}

// materialize builds a tenant's state and registers its metric families.
// Caller must not hold a conflicting lock; called from the constructor and
// under mu from get.
func (ts *tenants) materialize(cfg TenantConfig) *tenantState {
	t := &tenantState{
		cfg:    cfg,
		budget: probe.NewSharedBudget(cfg.ProbeBudget),

		gRunning:    ts.tel.Gauge("tracenet_tenant_campaigns_running", "tenant", cfg.Name),
		gBudgetLeft: ts.tel.Gauge("tracenet_tenant_budget_remaining", "tenant", cfg.Name),
		cProbes:     ts.tel.Counter("tracenet_tenant_probes_total", "tenant", cfg.Name),
		cAccepted:   ts.tel.Counter("tracenet_tenant_campaigns_total", "tenant", cfg.Name, "status", "accepted"),
		cDone:       ts.tel.Counter("tracenet_tenant_campaigns_total", "tenant", cfg.Name, "status", "done"),
		cFailed:     ts.tel.Counter("tracenet_tenant_campaigns_total", "tenant", cfg.Name, "status", "failed"),
		cCancelled:  ts.tel.Counter("tracenet_tenant_campaigns_total", "tenant", cfg.Name, "status", "cancelled"),
		cInterrupt:  ts.tel.Counter("tracenet_tenant_campaigns_total", "tenant", cfg.Name, "status", "interrupted"),
		cRejBudget:  ts.tel.Counter("tracenet_tenant_rejects_total", "tenant", cfg.Name, "reason", "budget"),
	}
	if cfg.RateInterval > 0 {
		t.pacer = probe.NewTokenBucket(cfg.RateInterval, cfg.RateBurst)
		t.pacer.SetWaitCounter(ts.tel.Counter("tracenet_tenant_pacer_wait_ticks_total", "tenant", cfg.Name))
	}
	if cfg.ProbeBudget > 0 {
		t.gBudgetLeft.Set(int64(cfg.ProbeBudget))
	}
	ts.list = append(ts.list, t)
	return t
}

// get returns the named tenant's state, admitting an unknown tenant under
// the default policy.
func (ts *tenants) get(name string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.list {
		if t.cfg.Name == name {
			return t
		}
	}
	cfg := ts.defaults
	cfg.Name = name
	return ts.materialize(cfg)
}

// tryAcquire reserves a running-campaign slot, honouring MaxConcurrent.
func (ts *tenants) tryAcquire(t *tenantState) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t.cfg.MaxConcurrent > 0 && t.running >= t.cfg.MaxConcurrent {
		return false
	}
	t.running++
	t.gRunning.Set(int64(t.running))
	return true
}

// release returns a running-campaign slot.
func (ts *tenants) release(t *tenantState) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t.running--
	t.gRunning.Set(int64(t.running))
}

// charge accounts a finished campaign's wire spend against the tenant's
// exposition: the probes counter and the remaining-budget gauge (the budget
// itself was charged live by the probe layer's chained reservations).
func (t *tenantState) charge(wireProbes uint64) {
	t.cProbes.Add(wireProbes)
	if t.cfg.ProbeBudget > 0 {
		t.gBudgetLeft.Set(int64(t.budget.Remaining()))
	}
}

// countOutcome bumps the tenant's campaigns_total series for a final status.
func (t *tenantState) countOutcome(status string) {
	switch status {
	case stateDone:
		t.cDone.Inc()
	case stateFailed:
		t.cFailed.Inc()
	case stateCancelled:
		t.cCancelled.Inc()
	case stateInterrupted:
		t.cInterrupt.Inc()
	}
}
