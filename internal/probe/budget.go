package probe

import (
	"sync/atomic"

	"tracenet/internal/invariant"
)

// SharedBudget caps the number of packets a set of probers may put on the
// wire collectively — one prober, or every worker of a parallel collection
// run. Reservation is atomic:
// once the cap is reached every further spend attempt fails, no matter how
// many probers race for the last packet, so the campaign can never overspend.
//
// Budgets chain: a budget built with NewChildBudget reserves against its own
// cap first and then against the parent, refunding the local reservation when
// the parent declines. The daemon uses this to give every campaign its own
// cap while a per-tenant root budget bounds the tenant's aggregate spend
// across all of its campaigns.
type SharedBudget struct {
	cap    uint64
	used   atomic.Uint64
	parent *SharedBudget
}

// NewSharedBudget creates a budget allowing cap wire packets in total.
// cap == 0 means unlimited (every spend succeeds); a nil *SharedBudget
// behaves the same, so an unbudgeted campaign carries no extra cost.
func NewSharedBudget(cap uint64) *SharedBudget {
	return &SharedBudget{cap: cap}
}

// NewChildBudget creates a budget allowing cap wire packets (0 = no local
// cap) whose every successful reservation is also charged to parent. A nil
// parent makes it equivalent to NewSharedBudget.
func NewChildBudget(cap uint64, parent *SharedBudget) *SharedBudget {
	return &SharedBudget{cap: cap, parent: parent}
}

// Parent returns the budget this one charges through, if any.
func (b *SharedBudget) Parent() *SharedBudget {
	if b == nil {
		return nil
	}
	return b.parent
}

// TrySpend reserves n packets against the budget (and its whole parent
// chain), reporting whether the reservation fit. A failed reservation
// consumes nothing at any level: a local reservation that the parent then
// declines is refunded before returning.
func (b *SharedBudget) TrySpend(n uint64) bool {
	if b == nil {
		return true
	}
	if b.cap != 0 {
		for {
			used := b.used.Load()
			if used+n > b.cap {
				return false
			}
			if b.used.CompareAndSwap(used, used+n) {
				invariant.Assertf(used+n <= b.cap,
					"probe: shared budget overspent: %d of %d", used+n, b.cap)
				break
			}
		}
	}
	if b.parent.TrySpend(n) {
		return true
	}
	if b.cap != 0 {
		b.used.Add(^uint64(n - 1)) // refund the local reservation
	}
	return false
}

// Used returns how many packets have been reserved so far.
func (b *SharedBudget) Used() uint64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Cap returns the budget's capacity (0 = unlimited).
func (b *SharedBudget) Cap() uint64 {
	if b == nil {
		return 0
	}
	return b.cap
}

// Remaining returns how many packets may still be spent, the minimum over
// the parent chain; unlimited budgets (and nil) report ^uint64(0).
func (b *SharedBudget) Remaining() uint64 {
	if b == nil {
		return ^uint64(0)
	}
	rem := ^uint64(0)
	if b.cap != 0 {
		if used := b.used.Load(); used >= b.cap {
			rem = 0
		} else {
			rem = b.cap - used
		}
	}
	if prem := b.parent.Remaining(); prem < rem {
		rem = prem
	}
	return rem
}

// Exhausted reports whether the budget — or any budget up its parent chain —
// is fully spent.
func (b *SharedBudget) Exhausted() bool {
	if b == nil {
		return false
	}
	if b.cap != 0 && b.used.Load() >= b.cap {
		return true
	}
	return b.parent.Exhausted()
}
