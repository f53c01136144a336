package collect

import (
	"sync"
	"sync/atomic"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// hopContext identifies one subnet exploration: the pivot interface v
// obtained at hop distance d, entered from the previous-hop interface u.
// Traces toward different destinations that cross the same router interface
// share the context, which is what lets a campaign explore each backbone
// subnet once instead of once per destination (the Doubletree insight applied
// to subnet exploration instead of path probing).
type hopContext struct {
	v, u ipv4.Addr
	d    int
}

// cacheEntry is one single-flight exploration slot. The owner closes ready
// after filling g or err; waiters block on ready and then read whichever was
// set. Entries whose growth failed are removed from the cache before ready is
// closed, so errors are never memoized — the next encounter retries.
type cacheEntry struct {
	ready chan struct{}
	g     core.Growth
	err   error
}

// Cache is the campaign's shared subnet cache: a concurrency-safe,
// single-flight memo of subnet explorations keyed by hop context, plus an
// immutable member-address tier seeded from a resumed checkpoint.
//
// Determinism: every cache decision is a pure function of the hop context —
// the frozen tier never changes during the run, and the context memo runs
// each distinct context's growth exactly once — so campaign-wide probe
// totals and the merged topology are independent of worker count and
// scheduling.
type Cache struct {
	// frozen maps member addresses of checkpoint-restored subnets to their
	// subnet. Built once before workers start; never mutated afterwards.
	frozen map[ipv4.Addr]*core.Subnet

	mu      sync.Mutex
	entries map[hopContext]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
	saved  atomic.Uint64
}

// NewCache creates an empty shared subnet cache.
func NewCache() *Cache {
	return &Cache{
		frozen:  make(map[ipv4.Addr]*core.Subnet),
		entries: make(map[hopContext]*cacheEntry),
	}
}

// Freeze seeds the immutable member tier with checkpoint-restored subnets.
// Must be called before any worker starts; the first subnet listing an
// address wins, so seeding order is the caller's (deterministic) order.
func (c *Cache) Freeze(subs []*core.Subnet) {
	for _, sub := range subs {
		for _, a := range sub.Addrs {
			if _, dup := c.frozen[a]; !dup {
				c.frozen[a] = sub
			}
		}
	}
}

// ExploreHop implements core.SharedSubnetCache: serve the hop context from
// the frozen tier or the context memo — running grow exactly once per
// distinct context across all concurrent callers.
func (c *Cache) ExploreHop(v, u ipv4.Addr, d int, grow func() (core.Growth, error)) (core.Growth, bool, error) {
	if sub, ok := c.frozen[v]; ok {
		g := core.Growth{Subnet: sub, Cost: sub.Probes}
		c.recordHit(g)
		return g, true, nil
	}

	key := hopContext{v: v, u: u, d: d}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The owner's growth failed; the entry is already gone from the
			// map, so a later encounter of this context will retry. This
			// waiter surfaces the same error for its session to absorb.
			return core.Growth{}, false, e.err
		}
		c.recordHit(e.g)
		return e.g, true, nil
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	g, err := grow()
	if err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		e.err = err
		close(e.ready)
		return core.Growth{}, false, err
	}
	e.g = g
	c.misses.Add(1)
	close(e.ready)
	return g, false, nil
}

// recordHit accounts one cache hit: the growth's wire cost is exactly what
// the campaign did not have to spend again.
func (c *Cache) recordHit(g core.Growth) {
	c.hits.Add(1)
	c.saved.Add(g.Cost)
}

// Hits returns how many explorations were served from the cache.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns how many distinct contexts were grown (successfully).
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// ProbesSaved returns the wire packets the cache's hits avoided re-spending.
func (c *Cache) ProbesSaved() uint64 { return c.saved.Load() }
