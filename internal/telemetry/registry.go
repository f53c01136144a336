package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three instrument families of a registry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and inert on a nil receiver, so instrumented code can hold
// nil handles when telemetry is disabled.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v unless the current value is already larger —
// a monotonic Set. Concurrent writers mirroring a monotonic source (like the
// simulator's virtual clock) can race a plain Set so the final value is a
// stale intermediate; SetMax guarantees the gauge converges to the maximum
// regardless of write interleaving.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram over uint64 observations.
// Buckets are inclusive upper bounds in ascending order; an implicit +Inf
// bucket catches everything beyond the last bound.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot returns per-bucket counts (cumulative form is built at exposition).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// series is one registered metric: a family name plus an optional label set,
// holding exactly one instrument of its family's kind.
type series struct {
	family string
	labels string // canonical rendered label set, "" when unlabelled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a run's metrics. Registration (Counter/Gauge/Histogram) and
// instrument updates are safe for concurrent use; handles returned for the
// same (name, labels) are the same instrument, so hot paths should resolve
// their handles once and update through them.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]metricKind // family name -> kind
	byKey    map[string]*series    // family name + rendered label set
	ordered  []*series             // registration order; sorted at exposition
	hbuckets map[string][]uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]metricKind),
		byKey:    make(map[string]*series),
		hbuckets: make(map[string][]uint64),
	}
}

// keyBufSize is the stack buffer a lookup renders its series key into; every
// key tracenet registers fits, and a longer one only costs a heap buffer.
const keyBufSize = 128

// appendLabels appends the canonical rendered Prometheus label set of
// alternating key/value pairs to dst — sorted by key, so the same labels in
// any order name the same series, each value quoted as %q quotes it — and
// nothing for an empty list. It panics on an odd pair count: label sets are
// written at instrumentation sites, so a mismatch is a programming error.
// labels does not escape, so a caller's variadic label slice stays on its
// stack.
func appendLabels(dst []byte, labels []string) []byte {
	if len(labels) == 0 {
		return dst
	}
	if len(labels)%2 != 0 {
		// Format a copy: handing labels itself to fmt would move every
		// caller's label slice to the heap.
		panic(fmt.Sprintf("telemetry: odd label list %q", append([]string(nil), labels...)))
	}
	// Insertion-sort the pair indices by key, stably: a label set holds a
	// pair or two, and sort.Slice's closure and pair slice would allocate.
	var small [8]int
	order := small[:0]
	for i := 0; i < len(labels)/2; i++ {
		order = append(order, i)
		for j := len(order) - 1; j > 0 && labels[2*order[j-1]] > labels[2*i]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	dst = append(dst, '{')
	for n, i := range order {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[2*i]...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, labels[2*i+1])
	}
	return append(dst, '}')
}

// seriesLocked resolves a series key — the family name followed by its
// rendered label set — to its series, creating it on first use. Resolving
// an existing series allocates nothing and writes no map. It panics when one
// family name is used with two different kinds — like a conflicting
// probe.Options, a call-site programming error. Called with r.mu held.
func (r *Registry) seriesLocked(name string, key []byte, kind metricKind) *series {
	if s, ok := r.byKey[string(key)]; ok && s.kind == kind {
		return s
	}
	// A hit of another kind falls through to panic here: its family is
	// registered under that kind.
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, have, kind))
	}
	r.kinds[name] = kind
	k := string(key)
	s := &series{family: name, labels: k[len(name):], kind: kind}
	r.byKey[k] = s
	r.ordered = append(r.ordered, s)
	return s
}

// Counter returns the counter for (name, labels), registering it on first
// use. Labels are alternating key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	var buf [keyBufSize]byte
	key := appendLabels(append(buf[:0], name...), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, key, kindCounter)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	var buf [keyBufSize]byte
	key := appendLabels(append(buf[:0], name...), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, key, kindGauge)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for (name, labels) with the given
// ascending inclusive upper bounds, registering it on first use. Every
// series of one family must use identical bounds; a mismatch panics.
func (r *Registry) Histogram(name string, buckets []uint64, labels ...string) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
	var buf [keyBufSize]byte
	key := appendLabels(append(buf[:0], name...), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, key, kindHistogram)
	if s.h == nil {
		// The family's series share its first registration's bounds.
		bounds, ok := r.hbuckets[name]
		if !ok {
			bounds = append([]uint64(nil), buckets...)
			r.hbuckets[name] = bounds
		}
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	if !slices.Equal(s.h.bounds, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different buckets", name))
	}
	return s.h
}

// sortedSeries snapshots the series list ordered by family name then label
// set — the deterministic exposition order.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// kindOf returns the registered kind of a family.
func (r *Registry) kindOf(family string) metricKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[family]
}
