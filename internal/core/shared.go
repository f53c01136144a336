package core

import "tracenet/internal/ipv4"

// Growth is the outcome of one subnet exploration at a hop context: the
// subnet grown around pivot v (nil when v was unpositionable) and the packet
// cost — position plus exploration packets — that the growth spent. On a
// clean network the whole Growth is a pure function of the hop context
// (v, u, d): the session clears its prober's response cache before an owned
// growth precisely so the cost cannot depend on what the session probed
// earlier, and a campaign's probe memo replays the packets of every probe it
// answers. That purity is what lets a campaign share growths across workers
// without perturbing any observable output.
type Growth struct {
	// Subnet is the grown subnet, nil when positioning rejected the pivot.
	Subnet *Subnet
	// Cost is the number of packets the growth sent, counting those a probe
	// memo hit replayed.
	Cost uint64
}

// SharedSubnetCache lets sessions tracing different destinations share subnet
// explorations (the campaign layer's Doubletree-style stop logic): before
// exploring the subnet at a hop, the session offers the hop context to the
// cache, which either returns a previously grown Growth (hit) or runs the
// supplied grow function exactly once across all concurrent callers and
// memoizes its outcome.
//
// Contract:
//   - The context key is (v, u, d): pivot interface, previous-hop interface,
//     and hop distance. Two hops with equal contexts must grow identical
//     subnets on a deterministic network, so sharing them is lossless.
//   - grow is invoked at most once per distinct context, no matter how many
//     sessions race on it; other callers block until the owner finishes.
//   - A grow error is returned to the owner and every waiter but is never
//     memoized — the next encounter of the context retries.
//   - A successful Growth with a nil Subnet (unpositionable pivot) IS
//     memoized: re-probing a pivot that cannot be positioned wastes the same
//     packets every time.
//
// ExploreHop returns the growth, whether it was served from the cache
// (hit = true means grow did not run in this call), and the grow error.
type SharedSubnetCache interface {
	ExploreHop(v, u ipv4.Addr, d int, grow func() (Growth, error)) (Growth, bool, error)
}
