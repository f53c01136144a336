package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one operation share Op; Parent indexes the span that
// caused this one, or is -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the length of a traced run; write puts
// them on disk once the run is over. A nil *tracer records nothing, so the
// untraced run pays one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant into the tracer's nanosecond timeline.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a finished span and returns its index for children to name as
// their parent (-1 on a nil tracer).
func (t *tracer) add(name string, op uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// begin opens a span whose children are recorded before it ends; finish
// closes it.
func (t *tracer) begin(name string, op uint64, parent int, start time.Time) int {
	return t.add(name, op, parent, start, start)
}

func (t *tracer) finish(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.at(end)
	t.mu.Unlock()
}

// layerTime is the accumulated duration and self time of one span name.
type layerTime struct {
	count int
	total int64 // summed durations, ns
	self  int64 // summed durations minus the part child spans cover, ns
}

// meanMS returns the mean span duration in milliseconds.
func (l layerTime) meanMS() float64 {
	return ratio(float64(l.total), float64(l.count)) / 1e6
}

// layers folds the spans by name. A span's self time is its duration minus
// the union of its children's intervals, so concurrent children (a campaign's
// workers) are not counted twice.
func (t *tracer) layers() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := t.childCover()
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.count++
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - covered[i]
		out[s.Name] = lt
	}
	return out
}

// coverage returns the share of the operations' wall time that layer spans
// account for: the summed union of every "op" root span's children over the
// summed op durations. A trace missing a layer shows up as coverage well
// below 1.
func (t *tracer) coverage() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := t.childCover()
	var cov, wall int64
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == "op" {
			cov += covered[i]
			wall += s.End - s.Start
		}
	}
	return ratio(float64(cov), float64(wall))
}

// childCover returns, per span, the length of the union of its children's
// intervals clipped to the span itself. Caller holds t.mu.
func (t *tracer) childCover() []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	covered := make([]int64, len(t.spans))
	for p, iv := range kids {
		covered[p] = unionLength(iv, t.spans[p].Start, t.spans[p].End)
	}
	return covered
}

// unionLength returns the total length of the union of intervals, each
// clipped to [lo, hi]. It sorts iv in place.
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
