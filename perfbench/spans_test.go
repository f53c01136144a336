package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 4}, {6, 10}}, 0, 10, 8},
		{[][2]int64{{6, 10}, {0, 4}, {2, 7}}, 0, 10, 10}, // unsorted, overlapping
		{[][2]int64{{0, 4}, {1, 3}}, 0, 10, 4},           // nested
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},         // clipped to the parent
		{[][2]int64{{4, 4}, {12, 15}}, 0, 10, 0},         // empty and outside
	} {
		if got := unionLength(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("unionLength(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	// One op of 10 ms: two concurrent children cover 1-6 and 3-8, so the
	// root's children cover 7 ms; the first child has a 2 ms grandchild.
	root := tr.begin("op", 1, -1, at(0))
	a := tr.add("session", 1, root, at(1), at(6))
	tr.add("exchange", 1, a, at(2), at(4))
	tr.add("session", 1, root, at(3), at(8))
	tr.finish(root, at(10))
	// A root that is not an op does not count toward coverage.
	tr.add("shadow", 2, -1, at(20), at(40))

	lt := tr.layers()
	ms := time.Millisecond.Nanoseconds()
	if got := lt["op"]; got.count != 1 || got.total != 10*ms || got.self != 3*ms {
		t.Errorf("op = %+v, want one 10 ms span with 3 ms self", got)
	}
	if got := lt["session"]; got.count != 2 || got.total != 10*ms || got.self != 8*ms {
		t.Errorf("session = %+v, want 10 ms total, 8 ms self", got)
	}
	if got := lt["session"].meanMS(); got != 5 {
		t.Errorf("session mean = %v ms, want 5", got)
	}
	if got := tr.coverage(); got != 0.7 {
		t.Errorf("coverage = %v, want 0.7", got)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("wrote %d spans, want 5", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[2]), &s); err != nil || s.Name != "exchange" || s.Parent != a {
		t.Errorf("span 2 = %+v, %v", s, err)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if i := tr.begin("op", 1, -1, now); i != -1 {
		t.Errorf("begin on nil tracer = %d", i)
	}
	tr.finish(-1, now)
	if len(tr.layers()) != 0 || tr.coverage() != 0 || tr.write("unused") != nil {
		t.Error("nil tracer recorded something")
	}
}
