// Command perfbench is tracenet's end-to-end benchmark. Each invocation runs
// one workload in a fresh process and prints, as the last line of standard
// output, one JSON object with the run's correctness verdict and metrics:
//
//	bash perfbench/run.sh --workload survey --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload untraced, traced and untraced again, for a third of the time
// each, and reports the per-layer metrics of the traced run; the spans go to
// <out>/spans/. A failed output check prints correct=false and exits 1.
// README.md describes the workloads and what each metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics a user of tracenet sees, reported with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"targets_per_s", "targets/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_target", "ms"},
	{"alloc_kb_per_target", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"wire_probes_per_target", "probes/target"},
	{"subnet_precision", "ratio"},
	{"subnet_recall", "ratio"},
	{"op_success_ratio", "ratio"},
}

// perLayer are the traced run's metrics. A workload that never calls into a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"topo.build_ms", "ms"},
	{"netsim.new_ms", "ms"},
	{"netsim.exchange_ns", "ns"},
	{"netsim.busy_share", "ratio"},
	{"netsim.exchanges_per_target", "count"},
	{"netsim.reply_ratio", "ratio"},
	{"core.trace_ms", "ms"},
	{"core.self_us_per_target", "us"},
	{"collect.run_s", "s"},
	{"collect.cache_hit_ratio", "ratio"},
	{"collect.probes_saved_ratio", "ratio"},
	{"collect.report_ms", "ms"},
	{"collect.checkpoint_ms", "ms"},
	{"groundtruth.score_ms", "ms"},
	{"daemon.submit_ms", "ms"},
	{"daemon.queue_wait_ms", "ms"},
	{"daemon.run_ms", "ms"},
	{"daemon.report_get_ms", "ms"},
	{"daemon.replay_ms", "ms"},
	{"daemon.spool_files_per_campaign", "count"},
	{"daemon.spool_kb_per_campaign", "KiB"},
	{"daemon.retained_kb_per_campaign", "KiB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

// manifestPath is the benchmark manifest, relative to the checkout root the
// benchmark runs from.
const manifestPath = "BENCHMARK.json"

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured. Each set-up starts after
// a forced collection, so it does not pay for its predecessor's garbage.
const setupRepeats = 7

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds float64       // measuring time for this run
	tr      *tracer       // nil when untraced
	burn    time.Duration // synthetic CPU cost per exchange (sensitivity check)
	out     string        // scratch directory inside the checkout
	spool   string        // where the daemon workload puts its spools
	logw    io.Writer     // progress notes
}

// outcome is one workload run's measurements and verdict.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail records a failed output check; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"survey": runSurvey,
	"trace":  runTrace,
	"daemon": runDaemon,
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: survey, trace or daemon")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "scratch directory for spans and digests")
	spool := fs.String("spool", "", "directory for the daemon workload's spools (default: -out)")
	burnNS := fs.Int("burn-ns", 0, "CPU time to burn per netsim exchange, in ns (sensitivity check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload survey|trace|daemon --seed n --seconds n --trace 0|1")
		return 2
	}
	if err := checkManifest(manifestPath); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *spool == "" {
		*spool = *out
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: float64(*seconds),
		burn:    time.Duration(*burnNS),
		out:     *out,
		spool:   *spool,
		logw:    stderr,
	}

	var o *outcome
	var err error
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
		o, err = traced(wl, e, *workload)
	} else {
		o, err = wl(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	o.e2e["peak_rss_mb"] = peakRSSMiB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.layer["runtime.gc_cpu_fraction"] = ms.GCCPUFraction

	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricJSON)}
	vals := o.e2e
	if *traceFlag == 1 {
		vals = o.layer
	}
	for _, d := range defs {
		// A per-layer metric a workload never measured is a layer it does
		// not call into; it reads 0.
		v, ok := vals[d.Name]
		if !ok && *traceFlag == 0 {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", *workload)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// traced runs the workload three times for a third of the time each:
// untraced, traced, untraced. It returns the traced run with the trace's own
// metrics added; the overhead compares it with the mean of the untraced runs
// on either side, so warm-up and drift within the process cancel out.
func traced(wl func(*env) (*outcome, error), e *env, name string) (*outcome, error) {
	third := *e
	third.seconds = e.seconds / 3
	before, err := wl(&third)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	third.tr = tr
	o, err := wl(&third)
	if err != nil {
		return nil, err
	}
	third.tr = nil
	after, err := wl(&third)
	if err != nil {
		return nil, err
	}
	for _, b := range []*outcome{before, after} {
		o.problems = append(o.problems, b.problems...)
		o.attempted += b.attempted
		o.failed += b.failed
	}
	untraced := (before.e2e["targets_per_s"] + after.e2e["targets_per_s"]) / 2
	o.layer["trace.overhead"] = traceOverhead(untraced, o.e2e["targets_per_s"])
	o.layer["trace.coverage"] = tr.coverage()
	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(e.logw, "perfbench: spans written to", path)
	return o, nil
}

// checkManifest verifies that BENCHMARK.json declares exactly the metrics
// this program reports, with the same units, and that every name and unit is
// well formed.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("%s: unknown workload %q", path, w.Name)
		}
		names = append(names, w.Name)
	}
	if err := sameMetrics("end_to_end", m.EndToEnd, endToEnd); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("per_layer", m.PerLayer, perLayer); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.Name)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !validName(n) || seen[n] {
			return fmt.Errorf("%s: invalid or repeated name %q", path, n)
		}
		seen[n] = true
	}
	return nil
}

// sameMetrics reports any difference between declared and reported metrics.
func sameMetrics(section string, declared, reported []metricDef) error {
	want := make(map[string]string)
	for _, d := range reported {
		if !validUnit(d.Unit) {
			return fmt.Errorf("%s: metric %s has invalid unit %q", section, d.Name, d.Unit)
		}
		want[d.Name] = d.Unit
	}
	got := make(map[string]string)
	for _, d := range declared {
		got[d.Name] = d.Unit
	}
	var diffs []string
	for n, u := range want {
		if got[n] != u {
			diffs = append(diffs, fmt.Sprintf("%s (%s, declared %q)", n, u, got[n]))
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			diffs = append(diffs, n+" (not reported)")
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("%s does not match the reported metrics: %s", section, strings.Join(diffs, ", "))
	}
	return nil
}

// meter is a snapshot of the process's allocation counters.
type meter struct {
	alloc uint64 // cumulative bytes allocated
	gc    uint32 // completed GC cycles
}

// readMeter snapshots the counters. ReadMemStats stops the world briefly, so
// call it only at the edges of a timed region.
func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// add accumulates the counters' growth from a to b.
func (m *meter) add(a, b meter) {
	m.alloc += b.alloc - a.alloc
	m.gc += b.gc - a.gc
}

// perTarget fills the allocation metrics for n targets.
func (m meter) perTarget(o *outcome, n int) {
	o.e2e["alloc_kb_per_target"] = ratio(float64(m.alloc)/1024, float64(n))
	o.layer["runtime.gc_cycles"] = float64(m.gc)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segments groups timed work into consecutive segments and keeps each one's
// throughput and CPU cost per target. Rates are reported as medians over
// segments, so a burst of CPU time stolen by another tenant of the machine
// moves a segment or two rather than the whole run's figure.
type segments struct {
	minBusy time.Duration // a segment closes once it holds this much work
	n       int
	busy    time.Duration
	cpu     time.Duration
	rates   []float64 // targets per second of work
	costs   []float64 // CPU ms per target
}

// add records n targets finished in busy wall time using cpu CPU time.
func (s *segments) add(n int, busy, cpu time.Duration) {
	s.n += n
	s.busy += busy
	s.cpu += cpu
	if s.busy >= s.minBusy {
		s.rates = append(s.rates, float64(s.n)/s.busy.Seconds())
		s.costs = append(s.costs, float64(s.cpu)/1e6/float64(s.n))
		s.n, s.busy, s.cpu = 0, 0, 0
	}
}

// report sets targets_per_s and cpu_ms_per_target to the segment medians.
func (s *segments) report(o *outcome) {
	o.e2e["targets_per_s"] = median(s.rates)
	o.e2e["cpu_ms_per_target"] = median(s.costs)
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// checkDigest compares a run's output digest with the one an earlier run of
// the same binary stored under key in the checkout, storing it if none did.
// A mismatch means two runs of one seed produced different outputs.
func checkDigest(e *env, o *outcome, key, digest string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.out, "digests", fmt.Sprintf("%x", sha256.Sum256(bin)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			o.fail("%s: output digest %s differs from an earlier run's %s", key, digest, prev)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

// logf writes a progress note to the run's log.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.logw, "perfbench: "+format+"\n", args...)
}

// since returns the time elapsed from t in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
