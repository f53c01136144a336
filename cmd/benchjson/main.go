// Command benchjson converts `go test -bench` text output into a stable JSON
// document, so benchmark baselines can be committed and diffed
// (scripts/bench.sh writes BENCH_<date>.json with it).
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -date 20260805 > BENCH_20260805.json
//	go test -bench . -benchmem ./... | benchjson -compare BENCH_20260805.json
//
// The date is injected by the caller rather than read from the wall clock,
// keeping the conversion itself a pure function of its input.
//
// -compare diffs the piped run against a committed baseline and prints one
// line per benchmark metric that moved. It gates only on exact counts (the
// wire-probes, probes/trace and spool-files/campaign units): they move when
// the collector's or the daemon's behaviour does, never with the machine or
// the iteration count, so a rise in one exits non-zero. Every other metric is warn-only — timings from
// single-run benchmarks on shared hardware are too noisy to gate on, and
// allocs/op at one iteration includes warm-up. The hard allocation gate is
// the allocation-budget check (tracenetlint -allocbudget).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Baseline is the document schema.
type Baseline struct {
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	date := flag.String("date", "", "baseline date stamp (e.g. 20260805), supplied by the caller")
	baseline := flag.String("compare", "",
		"diff the piped bench output against this baseline JSON (exits 1 when an exact count rose)")
	flag.Parse()
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := compare(os.Stdin, f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := convert(os.Stdin, os.Stdout, *date); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert parses go test -bench output from r and writes the JSON baseline to
// w. Non-benchmark lines (pkg headers, PASS/ok trailers, test logs) are
// skipped; header lines fill the document's environment fields.
func convert(r io.Reader, w io.Writer, date string) error {
	base, err := parse(r, date)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(base)
}

// parse reads go test -bench output into a Baseline document.
func parse(r io.Reader, date string) (Baseline, error) {
	base := Baseline{Date: date, Go: runtime.Version(), Benchmarks: []Benchmark{}}
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			base.Benchmarks = append(base.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return Baseline{}, err
	}
	if len(base.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("no benchmark result lines in input")
	}
	return base, nil
}

// regressThreshold is the relative increase past which a timing metric is
// labelled a regression in the compare report. Count metrics (allocs/op) are
// exact, so any increase at all is flagged.
const regressThreshold = 0.10

// gatedUnits are the exact, lower-is-better counts compare gates on: probe
// counts, and the files tracenetd's spool holds per campaign.
var gatedUnits = map[string]bool{"wire-probes": true, "probes/trace": true, "spool-files/campaign": true}

// errCountsRose is compare's error when a gated count rose.
var errCountsRose = errors.New("exact counts rose")

// compare diffs the bench output on cur against the baseline JSON on base,
// writing a per-metric report to w. It fails with errCountsRose when a gated
// count rose; every other movement is advisory, and the only other
// errors are parse failures.
func compare(cur io.Reader, base io.Reader, w io.Writer) error {
	var baseline Baseline
	if err := json.NewDecoder(base).Decode(&baseline); err != nil {
		return fmt.Errorf("baseline: %v", err)
	}
	current, err := parse(cur, "")
	if err != nil {
		return err
	}
	old := make(map[string]Benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		old[benchKey(b.Name)] = b
	}
	regressions, gated := 0, 0
	for _, b := range current.Benchmarks {
		prev, ok := old[benchKey(b.Name)]
		if !ok {
			fmt.Fprintf(w, "%-32s new benchmark (not in baseline %s)\n", benchKey(b.Name), baseline.Date)
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			if _, ok := prev.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			was, now := prev.Metrics[u], b.Metrics[u]
			verdict := metricVerdict(u, was, now)
			if verdict == "" {
				continue
			}
			switch {
			case verdict == "REGRESSION" && gatedUnits[u]:
				gated++
				verdict += " (gating)"
			case verdict == "REGRESSION":
				regressions++
			}
			fmt.Fprintf(w, "%-32s %-12s %g -> %g (%+.1f%%) %s\n",
				benchKey(b.Name), u, was, now, relDelta(was, now)*100, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchjson: %d metric(s) regressed vs baseline %s (warn-only; not gating)\n",
			regressions, baseline.Date)
	}
	if gated > 0 {
		return fmt.Errorf("%w: %d vs baseline %s", errCountsRose, gated, baseline.Date)
	}
	if regressions == 0 {
		fmt.Fprintf(w, "benchjson: no regressions vs baseline %s\n", baseline.Date)
	}
	return nil
}

// benchKey strips the trailing -N GOMAXPROCS suffix so runs on machines with
// different core counts still match.
func benchKey(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// metricVerdict classifies one metric's movement: "REGRESSION", "improved",
// or "" for noise-level movement not worth a report line. Exact count metrics
// (allocs/op, B/op and the gated probe counts) regress on any increase;
// timing and rate metrics get the relative threshold.
func metricVerdict(unit string, was, now float64) string {
	exact := gatedUnits[unit] || unit == "allocs/op" || unit == "B/op"
	d := relDelta(was, now)
	switch {
	case now > was && (exact || d > regressThreshold):
		return "REGRESSION"
	case now < was && (exact || d < -regressThreshold):
		return "improved"
	}
	return ""
}

func relDelta(was, now float64) float64 {
	if was == 0 {
		if now == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (now - was) / was
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   1000000   702 ns/op   120 B/op   3 allocs/op   12.0 probes/trace
//
// Fields after the iteration count come in value/unit pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}
