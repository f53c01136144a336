package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: tracenet
cpu: Example CPU @ 2.40GHz
BenchmarkSingleTrace-8   	    9498	    126318 ns/op	        33.00 probes/trace	   65168 B/op	     589 allocs/op
BenchmarkProbeExchange-8 	 1000000	       702 ns/op	     120 B/op	       3 allocs/op
PASS
ok  	tracenet	2.498s
pkg: tracenet/internal/telemetry
BenchmarkCounterAdd-8    	164363322	         7.3 ns/op
PASS
ok  	tracenet/internal/telemetry	1.9s
`

func TestConvert(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader(sample), &out, "20260805"); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal([]byte(out.String()), &base); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if base.Date != "20260805" || base.GOOS != "linux" || base.CPU == "" {
		t.Errorf("bad header: %+v", base)
	}
	if len(base.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(base.Benchmarks), base.Benchmarks)
	}
	st := base.Benchmarks[0]
	if st.Name != "BenchmarkSingleTrace-8" || st.Package != "tracenet" || st.Iterations != 9498 {
		t.Errorf("bad first benchmark: %+v", st)
	}
	if st.Metrics["ns/op"] != 126318 || st.Metrics["probes/trace"] != 33 || st.Metrics["allocs/op"] != 589 {
		t.Errorf("bad metrics: %v", st.Metrics)
	}
	if ca := base.Benchmarks[2]; ca.Package != "tracenet/internal/telemetry" || ca.Metrics["ns/op"] != 7.3 {
		t.Errorf("package header not tracked across ok-trailers: %+v", ca)
	}
}

func TestConvertRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader("PASS\nok \ttracenet\t1s\n"), &out, "x"); err == nil {
		t.Error("benchmark-free input accepted")
	}
}

func TestCompareReportsMovement(t *testing.T) {
	baseline := `{
  "date": "20260805",
  "go": "go-test",
  "benchmarks": [
    {"name": "BenchmarkProbeExchange-8", "iterations": 1, "metrics": {"ns/op": 1000, "B/op": 600, "allocs/op": 15}},
    {"name": "BenchmarkSingleTrace-8", "iterations": 1, "metrics": {"ns/op": 126318, "allocs/op": 589}}
  ]
}`
	// allocs/op down (exact metric: any change reported), ns/op up 50%
	// (past the relative threshold), SingleTrace within noise, CounterAdd new.
	current := `BenchmarkProbeExchange-4   1000000   1500 ns/op   600 B/op   13 allocs/op
BenchmarkSingleTrace-4     9498      126400 ns/op   589 allocs/op
BenchmarkCounterAdd-4      164363322   7.3 ns/op
`
	var out strings.Builder
	if err := compare(strings.NewReader(current), strings.NewReader(baseline), &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"allocs/op",
		"15 -> 13",
		"improved",
		"1000 -> 1500",
		"REGRESSION",
		"new benchmark",
		"1 metric(s) regressed vs baseline 20260805 (warn-only",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("compare report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "BenchmarkSingleTrace-4   ns/op") {
		t.Errorf("noise-level ns/op movement reported:\n%s", report)
	}
}

func TestCompareClean(t *testing.T) {
	baseline := `{"date": "20260805", "benchmarks": [
	  {"name": "BenchmarkProbeExchange-8", "iterations": 1, "metrics": {"allocs/op": 15}}]}`
	current := "BenchmarkProbeExchange-8   1000000   700 ns/op   15 allocs/op\n"
	var out strings.Builder
	if err := compare(strings.NewReader(current), strings.NewReader(baseline), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no regressions vs baseline 20260805") {
		t.Errorf("clean compare: %s", out.String())
	}
}

// TestCompareGatesProbeCounts: a rise in an exact count (wire-probes,
// probes/trace, spool-files/campaign) fails the compare, whatever else
// moved; a fall, or a rise in a warn-only count such as allocs/op, does not.
func TestCompareGatesProbeCounts(t *testing.T) {
	baseline := `{"date": "20260805", "benchmarks": [
	  {"name": "BenchmarkSingleTrace-8", "iterations": 1, "metrics": {"probes/trace": 63, "allocs/op": 161}},
	  {"name": "BenchmarkCampaign/rtt=0s/parallel=4-8", "iterations": 1, "metrics": {"wire-probes": 574, "probes-saved": 832}},
	  {"name": "BenchmarkDaemonThroughput-8", "iterations": 1, "metrics": {"spool-files/campaign": 3, "campaigns/op": 8}}]}`
	for _, tc := range []struct {
		name, current string
		gate          bool
	}{
		{"one more probe per trace", "BenchmarkSingleTrace-8 1 100 ns/op 64.00 probes/trace 161 allocs/op\n", true},
		{"more wire probes", "BenchmarkCampaign/rtt=0s/parallel=4-8 1 100 ns/op 575.0 wire-probes 832.0 probes-saved\n", true},
		{"fewer wire probes", "BenchmarkCampaign/rtt=0s/parallel=4-8 1 100 ns/op 500.0 wire-probes 700.0 probes-saved\n", false},
		{"more allocs", "BenchmarkSingleTrace-8 1 100 ns/op 63.00 probes/trace 170 allocs/op\n", false},
		{"more spool files", "BenchmarkDaemonThroughput-8 1 100 ns/op 8.000 campaigns/op 4.125 spool-files/campaign\n", true},
		{"fewer spool files", "BenchmarkDaemonThroughput-8 1 100 ns/op 8.000 campaigns/op 2.000 spool-files/campaign\n", false},
	} {
		var out strings.Builder
		err := compare(strings.NewReader(tc.current), strings.NewReader(baseline), &out)
		if gated := errors.Is(err, errCountsRose); gated != tc.gate || (err != nil && !gated) {
			t.Errorf("%s: err = %v, want gating %v\n%s", tc.name, err, tc.gate, out.String())
		}
		if tc.gate && !strings.Contains(out.String(), "REGRESSION (gating)") {
			t.Errorf("%s: report does not mark the gating count:\n%s", tc.name, out.String())
		}
	}
}

func TestBenchKey(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkProbeExchange-8":  "BenchmarkProbeExchange",
		"BenchmarkProbeExchange-16": "BenchmarkProbeExchange",
		"BenchmarkProbeExchange":    "BenchmarkProbeExchange",
		"BenchmarkFoo-bar":          "BenchmarkFoo-bar",
	} {
		if got := benchKey(in); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",                     // no fields
		"BenchmarkX-8 notanint 5 ns/op",    // bad iteration count
		"BenchmarkX-8 100 notafloat ns/op", // bad metric value
		"BenchmarkX-8 100 5",               // dangling value without unit
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("malformed line parsed: %q", line)
		}
	}
}
