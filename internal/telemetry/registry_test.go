package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildSample populates a registry with one instrument of every family, in a
// deliberately scrambled registration order to prove exposition sorts.
func buildSample() *Registry {
	r := NewRegistry()
	r.Counter("tracenet_probes_sent_total", "proto", "udp").Add(3)
	r.Counter("tracenet_probes_sent_total", "proto", "icmp").Add(41)
	r.Gauge("tracenet_clock_ticks").Set(1234)
	h := r.Histogram("tracenet_reply_ttl", []uint64{8, 16, 32, 64})
	for _, v := range []uint64{3, 9, 61, 61, 200} {
		h.Observe(v)
	}
	r.Counter("tracenet_incidents_total").Add(2)
	return r
}

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := buildSample()
	if got := r.Counter("tracenet_probes_sent_total", "proto", "icmp").Value(); got != 41 {
		t.Errorf("icmp counter = %d, want 41", got)
	}
	// Label order must not mint a new series.
	r.Counter("tracenet_labels_total", "a", "1", "b", "2").Add(1)
	r.Counter("tracenet_labels_total", "b", "2", "a", "1").Add(1)
	if got := r.Counter("tracenet_labels_total", "a", "1", "b", "2").Value(); got != 2 {
		t.Errorf("label order minted a second series: got %d, want 2", got)
	}
	g := r.Gauge("tracenet_clock_ticks")
	g.Add(-34)
	if got := g.Value(); got != 1200 {
		t.Errorf("gauge = %d, want 1200", got)
	}
	h := r.Histogram("tracenet_reply_ttl", []uint64{8, 16, 32, 64})
	if h.Count() != 5 || h.Sum() != 334 {
		t.Errorf("histogram count=%d sum=%d, want 5/334", h.Count(), h.Sum())
	}
	want := []uint64{1, 1, 0, 2, 1} // buckets ≤8, ≤16, ≤32, ≤64, +Inf
	for i, c := range h.snapshot() {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tel *Telemetry
	var sp *Span
	c.Add(1)
	c.Inc()
	g.Set(7)
	g.Add(1)
	h.Observe(9)
	sp.Count("x", 1)
	sp.End()
	tel.Incident("nothing")
	tel.Record("probe", "nothing")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sp.Get("x") != 0 ||
		tel.Ticks() != 0 || tel.Incidents() != 0 {
		t.Error("nil handles leaked state")
	}
	if tel.Counter("x") != nil || tel.StartSpan("x") != nil {
		t.Error("nil telemetry minted live handles")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("tracenet_x_total")
	defer func() {
		if recover() == nil {
			t.Error("gauge reusing a counter family did not panic")
		}
	}()
	r.Gauge("tracenet_x_total")
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("tracenet_h", []uint64{1, 2, 4})
	defer func() {
		if recover() == nil {
			t.Error("histogram re-registered with different buckets did not panic")
		}
	}()
	r.Histogram("tracenet_h", []uint64{1, 2, 8})
}

// TestLabelRendering: a label set renders as its pairs sorted by key, each
// value quoted as fmt's %q quotes it, so the exposition reads as it did
// when labels were formatted with fmt.
func TestLabelRendering(t *testing.T) {
	for _, labels := range [][]string{
		nil,
		{"proto", "icmp"},
		{"status", "done", "campaign", "c0001.r2"},
		{"b", "2", "a", "1", "c", "3", "a", "0"},
		{"tenant", "quote\"back\\slash\nnewline\x00ctl\u00e9\xff"},
	} {
		pairs := make([]string, 0, len(labels)/2)
		for i := 0; i < len(labels); i += 2 {
			pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
		}
		sort.SliceStable(pairs, func(i, j int) bool {
			return strings.SplitN(pairs[i], "=", 2)[0] < strings.SplitN(pairs[j], "=", 2)[0]
		})
		want := ""
		if len(pairs) > 0 {
			want = "{" + strings.Join(pairs, ",") + "}"
		}
		if got := string(appendLabels(nil, labels)); got != want {
			t.Errorf("labels %q render %s, want %s", labels, got, want)
		}
	}
}

// TestLookupZeroAlloc: resolving the handle of an existing labelled series
// formats nothing and allocates nothing, and a lookup on a nil Telemetry
// allocates nothing either — the caller's variadic label slice stays on its
// stack.
func TestLookupZeroAlloc(t *testing.T) {
	tel := New(nil)
	var none *Telemetry
	buckets := []uint64{16, 32, 64}
	proto, campaign := "icmp", "c0001"
	for _, tc := range []struct {
		name   string
		lookup func()
	}{
		{"counter", func() { tel.Counter("tracenet_probe_sent_total", "proto", proto) }},
		{"two-label counter", func() { tel.Counter("tracenet_campaign_targets_total", "status", "done", "campaign", campaign) }},
		{"gauge", func() { tel.Gauge("tracenet_campaign_workers_inflight", "campaign", campaign) }},
		{"histogram", func() { tel.Histogram("tracenet_probe_reply_ttl", buckets, "proto", proto) }},
		{"nil telemetry", func() { none.Counter("tracenet_probe_sent_total", "proto", proto) }},
	} {
		tc.lookup() // register the series
		if allocs := testing.AllocsPerRun(100, tc.lookup); allocs != 0 {
			t.Errorf("%s lookup allocates %.1f, want 0", tc.name, allocs)
		}
	}
}

// golden compares got against the checked-in file, rewriting it when
// -update-golden is set via the environment (UPDATE_GOLDEN=1 go test ...).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := buildSample().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "sample_metrics.prom", b.String())
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := buildSample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "sample_metrics.json", b.String())
}

// TestExpositionDeterministic proves two identically-driven registries render
// byte-identically — the property the CLI's same-seed guarantee rests on.
func TestExpositionDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := buildSample().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two identical registries rendered differently")
	}
}
