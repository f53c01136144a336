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
// single-flight memo of subnet explorations keyed by hop context. A resumed
// campaign seeds it with the contexts its checkpoint's rows grew subnets at.
//
// Determinism: every cache decision is a pure function of the hop context —
// the memo runs each distinct context's growth exactly once, or serves the
// journaled growth of that context — so campaign-wide probe totals and the
// merged topology are independent of worker count, scheduling and resume.
type Cache struct {
	mu      sync.Mutex
	entries map[hopContext]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
	saved  atomic.Uint64
}

// NewCache creates an empty shared subnet cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[hopContext]*cacheEntry)}
}

// seed installs a finished memo entry for every hop context a journaled
// row's trace grew or adopted a subnet at: pivot v the hop's address, u the
// previous hop's (zero after an anonymous hop or at the first), d its TTL.
// A revisited hop never consulted the memo, so seeding it would serve a
// subnet the uninterrupted run grows afresh at that context; a context that
// grew no subnet is grown again. Must be called before any worker starts;
// the first row to journal a context wins.
func (c *Cache) seed(res *core.Result) {
	ready := make(chan struct{})
	close(ready)
	var u ipv4.Addr
	for _, h := range res.Hops {
		if h.Subnet != nil && !h.Revisited {
			key := hopContext{v: h.Addr, u: u, d: h.TTL}
			if _, dup := c.entries[key]; !dup {
				c.entries[key] = &cacheEntry{ready: ready, g: core.Growth{Subnet: h.Subnet, Cost: h.Subnet.Probes}}
			}
		}
		u = h.Addr
	}
}

// ExploreHop implements core.SharedSubnetCache: serve the hop context from
// the memo, running grow exactly once per distinct context across all
// concurrent callers.
func (c *Cache) ExploreHop(v, u ipv4.Addr, d int, grow func() (core.Growth, error)) (core.Growth, bool, error) {
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

// recordHit accounts one cache hit: the growth's packet cost is exactly
// what the campaign did not have to spend again.
func (c *Cache) recordHit(g core.Growth) {
	c.hits.Add(1)
	c.saved.Add(g.Cost)
}

// Hits returns how many explorations were served from the cache.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns how many distinct contexts were grown (successfully).
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// ProbesSaved returns the packets the cache's hits avoided re-spending.
func (c *Cache) ProbesSaved() uint64 { return c.saved.Load() }
