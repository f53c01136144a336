package main

import (
	"errors"
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // rank 990, ten samples beyond
		{999, 0.99, 0, false},    // rank 990, nine beyond
		{2200, 0.99, 2178, true}, // rank 2178, 22 beyond
		{20, 0.50, 10, true},     // rank 10, ten beyond
		{19, 0.50, 0, false},     // rank 10, nine beyond
		{0, 0.50, 0, false},
		{100, 1.0, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
		if !tc.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("percentile(n=%d, p=%v) error = %v, want errTooFewSamples", tc.n, tc.p, err)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{5, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := mean(xs); got != 2.75 {
		t.Errorf("mean = %v, want 2.75", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median or mean is not 0")
	}
}

// TestRatiosAndTheirBases pins each reported ratio to its base.
func TestRatiosAndTheirBases(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		// hits over all lookups (hits + misses)
		{"cacheHitRatio", cacheHitRatio(3, 1), 0.75},
		// probes saved over probes that would have been sent (saved + sent)
		{"probesSavedRatio", probesSavedRatio(1, 3), 0.25},
		// replies over exchanges
		{"replyRatio", replyRatio(2, 8), 0.25},
		// exchange time over session time
		{"busyShare", busyShare(300, 1200), 0.25},
		// succeeded (attempted - failed) over attempted
		{"successRatio", successRatio(8, 2), 0.75},
		// throughput lost to tracing, over untraced throughput
		{"traceOverhead", traceOverhead(200, 150), 0.25},
		// empty bases report 0, never NaN or Inf
		{"cacheHitRatio empty", cacheHitRatio(0, 0), 0},
		{"probesSavedRatio empty", probesSavedRatio(0, 0), 0},
		{"replyRatio empty", replyRatio(0, 0), 0},
		{"busyShare empty", busyShare(5, 0), 0},
		{"successRatio empty", successRatio(0, 0), 0},
		{"traceOverhead empty", traceOverhead(0, 10), 0},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestValidNameAndUnit(t *testing.T) {
	for _, n := range []string{"setup_s", "netsim.new_ms", "daemon.spool_kb_per_campaign", "9lives", "a-b"} {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	long := "a123456789012345678901234567890123456789012345678901234567890123" // 64
	if !validName(long) || validName(long+"x") {
		t.Error("validName length limit is not 64")
	}
	for _, n := range []string{"", "_x", ".x", "has space", "per/second", "µs"} {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "targets/s", "%", "KiB", "probes/target"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "targets per s", "a234567890123456x", "ms,s"} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
}

// TestMetricTablesAreValid checks the tables the program reports from.
func TestMetricTablesAreValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || !validUnit(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v is invalid or repeated", d)
		}
		seen[d.Name] = true
	}
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Errorf("BENCHMARK.json: %v", err)
	}
}

func TestSameMetricsReportsDifferences(t *testing.T) {
	reported := []metricDef{{"a", "ms"}, {"b", "s"}}
	if err := sameMetrics("x", []metricDef{{"b", "s"}, {"a", "ms"}}, reported); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	for _, declared := range [][]metricDef{
		{{"a", "ms"}},                         // b missing
		{{"a", "ms"}, {"b", "ms"}},            // unit differs
		{{"a", "ms"}, {"b", "s"}, {"c", "s"}}, // c not reported
	} {
		if err := sameMetrics("x", declared, reported); err == nil {
			t.Errorf("sameMetrics(%v) = nil, want a difference", declared)
		}
	}
}
