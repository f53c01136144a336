package daemon

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

// TestTenantBudgetReject: a tenant whose aggregate probe budget is spent has
// further submissions refused with 429, and the budget is never overspent —
// the chained per-campaign budgets stop the probe layer at the cap exactly.
func TestTenantBudgetReject(t *testing.T) {
	const cap = 10 // far below one figure3 campaign's wire spend
	h := startDaemon(t, t.TempDir(), Config{
		Tenants: []TenantConfig{{Name: "alice", ProbeBudget: cap}},
	})

	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3"})
	h.await(t, id)

	alice := h.d.tenants.get("alice")
	if used := alice.budget.Used(); used != cap {
		t.Fatalf("budget used = %d, want exactly %d (cap reached, never passed)", used, cap)
	}
	if !alice.budget.Exhausted() {
		t.Fatal("budget not exhausted after overrunning campaign")
	}

	code, body := h.do(t, "POST", "/api/v1/campaigns", &Spec{Tenant: "alice", Topology: "figure3"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit on spent budget: status %d, body %s, want 429", code, body)
	}
	if got := alice.cRejBudget.Value(); got != 1 {
		t.Fatalf("rejects_total{reason=budget} = %d, want 1", got)
	}
	// An unrelated tenant is unaffected.
	other := h.submit(t, &Spec{Tenant: "bob", Topology: "figure3"})
	if st := h.await(t, other); st[other] != stateDone {
		t.Fatalf("bob outcome: %v", st)
	}
}

// TestTenantHammer floods the daemon from many goroutines — submissions for
// a rate-limited, budget-capped, concurrency-capped tenant interleaved with
// an unlimited tenant, plus status reads and cancellations — and asserts the
// tenant invariants hold: the aggregate budget is never overspent and every
// accepted campaign reaches exactly one final state. Run under -race (the CI
// gate does) to check the registry's synchronization.
func TestTenantHammer(t *testing.T) {
	const (
		aliceCap     = 200
		perTenant    = 10
		totalSubmits = 2 * perTenant
	)
	h := startDaemon(t, t.TempDir(), Config{
		Concurrent: 4,
		Tenants: []TenantConfig{{
			Name:          "alice",
			MaxConcurrent: 2,
			ProbeBudget:   aliceCap,
			RateInterval:  1,
			RateBurst:     8,
		}},
	})

	var mu sync.Mutex
	var accepted []string
	aliceRejected := 0

	var wg sync.WaitGroup
	for i := 0; i < totalSubmits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := "alice"
			if i%2 == 1 {
				tenant = "bob"
			}
			code, body := h.do(t, "POST", "/api/v1/campaigns", &Spec{Tenant: tenant, Topology: "figure3"})
			switch code {
			case http.StatusAccepted:
				var doc struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, doc.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if tenant != "alice" {
					t.Errorf("unlimited tenant %s rejected: %s", tenant, body)
					return
				}
				mu.Lock()
				aliceRejected++
				mu.Unlock()
			default:
				t.Errorf("submit: unexpected status %d, body %s", code, body)
			}
			// Interleave reads and a cancellation attempt with the floods.
			h.do(t, "GET", "/api/v1/campaigns", nil)
			if i%5 == 0 {
				mu.Lock()
				var victim string
				if len(accepted) > 0 {
					victim = accepted[len(accepted)-1]
				}
				mu.Unlock()
				if victim != "" {
					h.do(t, "DELETE", "/api/v1/campaigns/"+victim, nil)
					h.do(t, "GET", "/api/v1/campaigns/"+victim, nil)
				}
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	ids := append([]string(nil), accepted...)
	rejected := aliceRejected
	mu.Unlock()
	st := h.await(t, ids...)

	alice := h.d.tenants.get("alice")
	if used := alice.budget.Used(); used > aliceCap {
		t.Errorf("tenant budget overspent: used %d of %d", used, aliceCap)
	}
	if got := alice.cProbes.Value(); got > aliceCap {
		t.Errorf("tracenet_tenant_probes_total = %d, exceeds cap %d", got, aliceCap)
	}
	if got := int(alice.cAccepted.Value()) + rejected; got != perTenant {
		t.Errorf("alice accepted+rejected = %d, want %d", got, perTenant)
	}
	for id, s := range st {
		switch s {
		case stateDone, stateCancelled, stateFailed, stateInterrupted:
		default:
			t.Errorf("campaign %s landed in non-final state %s", id, s)
		}
	}
	if len(st) != len(ids) {
		t.Errorf("awaited %d outcomes for %d accepted campaigns", len(st), len(ids))
	}
}
