// Command tracenet runs tracenet against a simulated network: path traces
// that collect, at every hop, the complete subnet accommodating the
// responding interface (Tozal & Sarac, IMC 2010).
//
// Usage:
//
//	tracenet [flags] [destination...]
//
//	-topo name|file   built-in topology (figure3, figure2, chain, internet2,
//	                  geant, isps, random) or a topology JSON file; default figure3
//	-vantage host     vantage host name (default: the topology's default)
//	-proto p          probe protocol: icmp (default), udp, tcp
//	-maxttl n         maximum trace length (default 30)
//	-seed n           simulation seed (default 1; 0 also selects 1, as an
//	                  unset Spec seed does)
//	-subnets          print the collected subnet inventory, with the hop,
//	                  pivot and contra-pivot marks the merged map omits
//	-debug            log every probe exchange to stderr as structured
//	                  JSON-lines records (see DESIGN.md §13)
//
// Fault injection and resilience:
//
//	-faults file      install a fault plan (JSON, see netsim.FaultPlan)
//	-chaos seed       install a random fault plan generated from seed
//	-backoff          retry silent probes with exponential backoff + jitter
//	-breaker          shed load to silent zones with a circuit breaker
//	-defend           harden inference against lying responders: cross-validate
//	                  suspicious replies from a second TTL, quarantine
//	                  inconsistent sources, demote conflicted subnets
//	                  (DESIGN.md §11)
//
// Campaigns (parallel multi-destination collection, see DESIGN.md §9):
//
//	-targets file        read destinations from a file, one address per line
//	                     ('#' starts a comment); combined with positional args
//	-parallel n          trace up to n destinations concurrently (default 1)
//	-campaign-budget n   shared wire-probe budget across all workers; targets
//	                     still queued when it runs out are skipped
//	-campaign-out file   write the campaign checkpoint (JSON) after the run:
//	                     the resume journal, one row per completed target
//	                     with its hop path
//	-campaign-resume f   resume the campaign from its checkpoint: completed
//	                     targets are rebuilt from their journaled paths
//	                     instead of being re-traced, and the hop contexts
//	                     those paths grew subnets at are not explored again,
//	                     so the report equals an uninterrupted run's; a
//	                     checkpoint naming other targets is refused
//	-campaign-no-cache   disable the shared subnet cache (for comparisons)
//	-spec file           run a tracenetd campaign spec (JSON, DESIGN.md §14)
//	                     locally. The spec supplies the whole campaign: a
//	                     field it leaves unset takes the Spec default,
//	                     which equals the flag default. Campaign flags
//	                     given beside it (-topo, -seed, -vantage, -proto,
//	                     -maxttl, -targets and destinations, -parallel,
//	                     -campaign-budget, -defend, -chaos, -backoff,
//	                     -breaker, -campaign-no-cache, -eval) are
//	                     ignored, not overlaid field by field.
//	                     Daemon-only fields (tenant, priority, rescans)
//	                     have no local meaning.
//
// Every run is a campaign: the campaign flags become a daemon.Spec, resolved
// exactly as tracenetd resolves one, and collect.Run traces every
// destination with its own session/prober pair. With more than one
// destination the sessions share a subnet cache, so each hop context is
// explored once; a lone destination runs without it and costs what one
// trace costs. The output is, in order: the banner, any resume and progress
// lines, the hop listing of every traced or resumed destination in input
// order, the merged campaign report, the run's wire-probe and cache line,
// the -subnets inventory, the probe and resilience totals summed over every
// prober the campaign dialed, the fault and defense lines, and the
// evaluation. All of it is byte-identical whatever -parallel is.
//
// Ground-truth evaluation (see DESIGN.md §10):
//
//	-eval             score the collected subnets against the simulator's
//	                  true topology: per-subnet verdicts (exact, subset,
//	                  superset, phantom, missed), precision/recall on subnets
//	                  and addresses, prefix-length error histogram
//	-eval-out file    also write the evaluation as a JSON artifact (implies
//	                  -eval)
//	-eval-core        score against router-to-router core subnets only,
//	                  excluding host access subnets from the truth
//
// The campaign's distinct collected subnets are scored, the same input
// tracenetd scores; with telemetry enabled the scores also land in the
// registry as the tracenet_eval_* metric families.
//
// Telemetry and profiling (see DESIGN.md §8):
//
//	-metrics-out file    write the metric registry at exit; Prometheus text
//	                     exposition, or JSON when the path ends in .json
//	-trace-out file      write the span hierarchy as Chrome trace-event JSON
//	                     (load in chrome://tracing or Perfetto)
//	-flight-recorder f   arm automatic flight-recorder dumps into f: every
//	                     incident (breaker open, degraded subnet) appends the
//	                     recent probe history (the last 256 events)
//	-cpuprofile file     write a pprof CPU profile of the run
//	-memprofile file     write a pprof heap profile at exit
//
// Timestamps in metrics and traces are netsim's virtual ticks, so two runs
// with the same seed and flags produce byte-identical telemetry artifacts.
//
// Live observability (see DESIGN.md §13):
//
//	-serve addr       serve the observability plane over HTTP (":0" picks a
//	                  free port): /metrics, /metrics.json, /healthz, /readyz,
//	                  /logz, /campaigns, /flightz, /debug/pprof/. The process
//	                  keeps serving after the run completes; SIGINT/SIGTERM
//	                  drains the server and writes the telemetry artifacts —
//	                  the same ones a clean exit writes.
//	-progress         print a deterministic "progress: i/n targets" line as
//	                  each campaign target completes
//	-stall-window n   campaign stall watchdog window in virtual ticks for
//	                  the /readyz staleness check (default 4096)
//	-log-level l      minimum structured log level: debug, info, warn, error
//	                  (default info; -debug lowers it to debug)
//
// Without destinations, the topology's suggested targets are traced.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"syscall"

	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// options carries every CLI knob into run, keeping the flag surface testable.
type options struct {
	topo    string
	vantage string
	proto   string
	maxTTL  int
	seed    int64
	subnets bool
	debug   bool
	faults  string // fault-plan JSON file
	chaos   int64  // random fault-plan seed, 0 = off
	backoff bool
	breaker bool
	defend  bool

	spec            string // tracenetd campaign spec file; replaces the campaign flags
	targets         string // destinations file, one address per line
	parallel        int    // concurrent traces
	campaignBudget  uint64 // shared wire-probe budget, 0 = unlimited
	campaignOut     string // write a campaign checkpoint here
	campaignResume  string // resume a campaign from this checkpoint
	campaignNoCache bool   // disable the shared subnet cache

	eval     bool   // score collected subnets against the simulated truth
	evalOut  string // write the evaluation JSON artifact here (implies eval)
	evalCore bool   // score against core (non-host) subnets only

	metricsOut string // metric registry exposition file (.json selects JSON)
	traceOut   string // Chrome trace-event JSON file
	flightOut  string // incident dump file; arms the flight recorder
	cpuProfile string // pprof CPU profile file
	memProfile string // pprof heap profile file

	serve       string // observability HTTP address; arms the live plane
	progress    bool   // print deterministic campaign progress lines
	stallWindow uint64 // stall watchdog window in ticks, 0 = default
	logLevel    string // minimum structured log level name

	dests []string

	// Test hooks: closing shutdown substitutes for a SIGINT/SIGTERM
	// delivery, and onServe observes the bound observability address.
	shutdown <-chan struct{}
	onServe  func(addr string)
}

// telemetryEnabled reports whether any observability flag asks for the
// telemetry layer to be attached.
func (o options) telemetryEnabled() bool {
	return o.metricsOut != "" || o.traceOut != "" || o.flightOut != "" || o.serve != ""
}

// campaignSpec returns the campaign to collect: the -spec file whole, or a
// Spec built from the campaign flags.
func (o options) campaignSpec() (*daemon.Spec, error) {
	if o.spec != "" {
		f, err := os.Open(o.spec)
		if err != nil {
			return nil, err
		}
		sp, err := daemon.ReadSpec(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		return sp, sp.Validate()
	}
	sp := &daemon.Spec{
		Topology:     o.topo,
		Seed:         o.seed,
		Vantage:      o.vantage,
		Proto:        o.proto,
		MaxTTL:       o.maxTTL,
		Parallel:     o.parallel,
		Budget:       o.campaignBudget,
		Defend:       o.defend,
		Chaos:        o.chaos,
		Backoff:      o.backoff,
		Breaker:      o.breaker,
		DisableCache: o.campaignNoCache,
		Eval:         o.eval,
	}
	if o.targets != "" {
		fromFile, err := readTargets(o.targets)
		if err != nil {
			return nil, err
		}
		sp.Targets = fromFile
	}
	sp.Targets = append(sp.Targets, o.dests...)
	return sp, nil
}

func main() {
	var o options
	flag.StringVar(&o.topo, "topo", "figure3", "built-in topology name or JSON file")
	flag.StringVar(&o.vantage, "vantage", "", "vantage host name")
	flag.StringVar(&o.proto, "proto", "", "probe protocol: icmp (default), udp, tcp")
	flag.IntVar(&o.maxTTL, "maxttl", 30, "maximum trace length")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.BoolVar(&o.subnets, "subnets", false, "print the collected subnet inventory")
	flag.BoolVar(&o.debug, "debug", false, "log every probe exchange to stderr")
	flag.StringVar(&o.faults, "faults", "", "fault plan JSON file to install")
	flag.Int64Var(&o.chaos, "chaos", 0, "install a random fault plan from this seed")
	flag.BoolVar(&o.backoff, "backoff", false, "retry silent probes with exponential backoff")
	flag.BoolVar(&o.breaker, "breaker", false, "circuit-break probing into persistently silent zones")
	flag.BoolVar(&o.defend, "defend", false, "cross-validate suspicious replies and quarantine inconsistent responders")
	flag.StringVar(&o.spec, "spec", "", "run a tracenetd campaign spec (JSON) locally; it replaces the campaign flags")
	flag.StringVar(&o.targets, "targets", "", "read destinations from this file, one address per line")
	flag.IntVar(&o.parallel, "parallel", 1, "trace up to n destinations concurrently")
	flag.Uint64Var(&o.campaignBudget, "campaign-budget", 0, "shared wire-probe budget across all campaign workers")
	flag.StringVar(&o.campaignOut, "campaign-out", "", "write a campaign checkpoint to this file")
	flag.StringVar(&o.campaignResume, "campaign-resume", "", "resume a campaign from this checkpoint file")
	flag.BoolVar(&o.campaignNoCache, "campaign-no-cache", false, "disable the campaign's shared subnet cache")
	flag.BoolVar(&o.eval, "eval", false, "score the collected subnets against the simulated ground truth")
	flag.StringVar(&o.evalOut, "eval-out", "", "write the ground-truth evaluation as JSON to this file (implies -eval)")
	flag.BoolVar(&o.evalCore, "eval-core", false, "evaluate against core subnets only, excluding host access subnets")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write metrics here at exit (Prometheus text, or JSON for .json paths)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of the run's spans")
	flag.StringVar(&o.flightOut, "flight-recorder", "", "dump the flight recorder into this file on every incident")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&o.serve, "serve", "", "serve the observability plane over HTTP on this address (\":0\" picks a port)")
	flag.BoolVar(&o.progress, "progress", false, "print a deterministic progress line per completed campaign target")
	flag.Uint64Var(&o.stallWindow, "stall-window", 0, "campaign stall watchdog window in virtual ticks (0 = default)")
	flag.StringVar(&o.logLevel, "log-level", "", "minimum structured log level: debug, info, warn, error")
	flag.Parse()
	o.dests = flag.Args()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "tracenet:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	sp, err := o.campaignSpec()
	if err != nil {
		return err
	}
	if o.faults != "" && sp.Chaos != 0 {
		return fmt.Errorf("-faults and -chaos are mutually exclusive")
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	c, err := sp.Resolve("")
	if err != nil {
		return err
	}
	net := c.Net
	if o.faults != "" {
		f, err := os.Open(o.faults)
		if err != nil {
			return err
		}
		plan, err := netsim.ReadFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := net.InstallFaults(plan); err != nil {
			return err
		}
	}

	// The telemetry layer rides on the simulator's virtual clock, so every
	// artifact it emits is reproducible from the seed.
	var tel *telemetry.Telemetry
	var traceFile, flightFile *os.File
	if o.telemetryEnabled() {
		tel = telemetry.New(net)
		tel.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightRecorderSize)
		if o.traceOut != "" {
			traceFile, err = os.Create(o.traceOut)
			if err != nil {
				return err
			}
			defer traceFile.Close()
			tel.Tracer = telemetry.NewTracer(traceFile)
		}
		if o.flightOut != "" {
			flightFile, err = os.Create(o.flightOut)
			if err != nil {
				return err
			}
			defer flightFile.Close()
			tel.SetIncidentWriter(flightFile)
		}
		net.SetTelemetry(tel)
	}

	// A serving run turns SIGINT/SIGTERM into a graceful snapshot-and-drain:
	// the context cancels, the HTTP server drains, and the run still writes
	// every telemetry artifact a clean exit would. The signal handler is
	// installed before the server starts so a signal racing the first request
	// is never lost. Tests substitute the shutdown channel for a real signal.
	ctx := context.Background()
	if o.serve != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	if o.shutdown != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-o.shutdown:
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	// The structured logger backs both -debug (JSON lines on stderr) and the
	// plane's /logz ring; it ticks on the simulator's virtual clock.
	var lg *obs.Logger
	if o.serve != "" || o.debug {
		lvl := obs.LevelInfo
		if o.debug {
			lvl = obs.LevelDebug
		}
		if o.logLevel != "" {
			if lvl, err = obs.ParseLevel(o.logLevel); err != nil {
				return err
			}
		}
		var logW io.Writer
		if o.debug {
			logW = os.Stderr
		}
		lg = obs.NewLogger(net, logW, lvl, obs.DefaultLogRingSize)
	}

	var srv *obs.Server
	var prog *collect.Progress
	if o.serve != "" {
		srv = obs.NewServer(tel, lg)
		prog = collect.NewProgress()
		campaigns := []obs.CampaignEntry{{Name: "campaign", Prog: prog}}
		checks := []obs.Check{
			obs.BudgetCheck(prog),
			obs.BreakerStormCheck(prog, 0),
			obs.StallCheck(collect.NewWatchdog(prog, tel, o.stallWindow, ""), net),
		}
		srv.AddCampaignSource(func() []obs.CampaignEntry { return campaigns })
		srv.AddCheckSource(func() []obs.Check { return checks })
		addr, err := srv.Start(o.serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "observability plane on http://%s/\n", addr)
		if o.onServe != nil {
			o.onServe(addr.String())
		}
	}

	ccfg := c.Config
	ccfg.Telemetry = tel
	ccfg.Progress = prog
	fmt.Fprintf(w, "tracenet over %s, vantage %s (%v), %s probes\n",
		c.Scenario.Description, c.Port.Host().Name, c.Port.LocalAddr(), ccfg.Probe.Protocol)
	if err := runCampaign(ctx, w, o, sp, c, ccfg, lg); err != nil {
		return err
	}
	if srv != nil {
		// Keep serving until SIGINT/SIGTERM (or the test hook) cancels the
		// context, then shut down gracefully, so the artifacts are written
		// after the last request drains.
		fmt.Fprintln(w, "observability plane serving; SIGINT/SIGTERM drains and writes artifacts")
		<-ctx.Done()
		if err := srv.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	return writeArtifacts(w, o, tel, traceFile, flightFile)
}

// runCampaign drives the collect engine over the resolved campaign config:
// every destination gets its own session/prober pair, and the hop listings,
// the merged report and the totals summed over every prober land on w.
// -progress prints a deterministic per-target line.
func runCampaign(ctx context.Context, w io.Writer, o options, sp *daemon.Spec, c *daemon.Campaign,
	ccfg collect.Config, lg *obs.Logger) error {
	if o.progress || lg != nil {
		// The completion count is tracked locally under the mutex so the
		// printed sequence 1/n..n/n is identical at any -parallel; which
		// target finished at each step is schedule-dependent, so the line
		// names only the count. Per-target detail goes to the log ring.
		var mu sync.Mutex
		done := 0
		total := len(ccfg.Targets)
		ccfg.OnTargetDone = func(r collect.TargetResult) {
			mu.Lock()
			done++
			if o.progress {
				fmt.Fprintf(w, "progress: %d/%d targets\n", done, total)
			}
			mu.Unlock()
			lg.Info("target done", "dst", r.Dst.String(), "status", string(r.Status))
		}
	}
	if o.campaignResume != "" {
		f, err := os.Open(o.campaignResume)
		if err != nil {
			return err
		}
		cp, err := collect.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return err
		}
		ccfg.Resume = cp
		fmt.Fprintf(w, "resuming campaign from %s: %d of %d targets done, %d subnets\n",
			o.campaignResume, len(cp.Rows), len(ccfg.Targets), len(cp.Subnets))
	}

	// Keep every prober the campaign dials: their summed stats are the run's
	// probe totals, whichever worker spent them.
	var mu sync.Mutex
	var probers []*probe.Prober
	ccfg.Dial = func(opts probe.Options) (*probe.Prober, error) {
		var tr probe.Transport = c.Port
		if o.debug {
			tr = probe.LoggingTransport{Inner: c.Port, Clock: c.Net, Sink: obs.ProbeSink(lg)}
		}
		pr := probe.New(tr, c.Port.LocalAddr(), opts)
		mu.Lock()
		probers = append(probers, pr)
		mu.Unlock()
		return pr, nil
	}

	rep, err := collect.Run(ctx, ccfg)
	if err != nil {
		return err
	}
	var recovered, defenseProbes uint64
	var quarantined []ipv4.Addr
	for _, t := range rep.Targets {
		res := t.Result
		if res == nil {
			continue // skipped
		}
		fmt.Fprint(w, res)
		recovered += res.Recovered
		defenseProbes += res.DefenseProbes
		quarantined = append(quarantined, res.Quarantined...)
	}
	fmt.Fprintln(w)
	if _, err := rep.WriteTo(w); err != nil {
		return err
	}
	// Run accounting: what this run put on the wire, which a resume does not
	// repeat for the targets its checkpoint journaled.
	fmt.Fprintf(w, "\nwire probes %d", rep.Stats.WireProbes)
	if rep.Stats.CacheMisses > 0 || rep.Stats.CacheHits > 0 {
		fmt.Fprintf(w, ", cache hits %d, misses %d, probes saved %d",
			rep.Stats.CacheHits, rep.Stats.CacheMisses, rep.Stats.ProbesSaved)
	}
	fmt.Fprintln(w)
	if o.subnets {
		fmt.Fprintf(w, "\ncollected subnets (%d):\n", len(rep.Subnets()))
		for _, s := range rep.Subnets() {
			fmt.Fprintln(w, " ", s)
		}
	}

	var st probe.Stats
	for _, pr := range probers {
		ps := pr.Stats()
		st.Sent += ps.Sent
		st.Answered += ps.Answered
		st.Retries += ps.Retries
		st.Cached += ps.Cached
		st.Timeouts += ps.Timeouts
		st.Corrupt += ps.Corrupt
		st.BreakerOpens += ps.BreakerOpens
		st.BreakerSkips += ps.BreakerSkips
		st.BackoffTicks += ps.BackoffTicks
	}
	fmt.Fprintf(w, "\nprobes sent %d, answered %d, retried %d, served from cache %d\n",
		st.Sent, st.Answered, st.Retries, st.Cached)
	faulted := sp.Chaos != 0 || o.faults != ""
	if faulted || st.FaultEvents() > 0 || st.Timeouts > 0 || recovered > 0 {
		fmt.Fprintf(w, "resilience: timeouts %d, corrupt %d, breaker opens %d, breaker skips %d, backoff ticks %d, recovered errors %d\n",
			st.Timeouts, st.Corrupt, st.BreakerOpens, st.BreakerSkips, st.BackoffTicks, recovered)
	}
	if faulted {
		fs := c.Net.FaultStats()
		fmt.Fprintf(w, "faults injected: flap drops %d, blackhole drops %d, corrupted %d, truncated %d, delayed %d, duplicated %d, storm drops %d\n",
			fs.FlapDrops, fs.BlackholeDrops, fs.Corrupted, fs.Truncated, fs.Delayed, fs.Duplicated, fs.StormDrops)
		if fs.Byzantine() > 0 {
			fmt.Fprintf(w, "byzantine replies: liar spoofs %d, alias shares %d, hidden drops %d, echo mirrors %d\n",
				fs.LiarSpoofs, fs.AliasShares, fs.HiddenDrops, fs.EchoMirrors)
		}
	}
	if sp.Defend {
		slices.Sort(quarantined)
		quarantined = slices.Compact(quarantined)
		fmt.Fprintf(w, "defense: cross-check probes %d, quarantined %d", defenseProbes, len(quarantined))
		if len(quarantined) > 0 {
			fmt.Fprintf(w, " %v", quarantined)
		}
		fmt.Fprintln(w)
	}

	if sp.Eval || o.evalOut != "" || o.evalCore {
		if err := runEval(w, o, c.Scenario.Topo, groundtruth.FromCoreSubnets(rep.Subnets()), ccfg.Telemetry); err != nil {
			return err
		}
	}

	if o.campaignOut != "" {
		f, err := os.Create(o.campaignOut)
		if err != nil {
			return err
		}
		if err := collect.WriteCheckpoint(f, rep.Checkpoint()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "campaign checkpoint written to %s\n", o.campaignOut)
	}
	return nil
}

// runEval scores the collected subnets against the simulator's ground truth,
// prints the deterministic text report, mirrors the scores onto the telemetry
// registry, and optionally writes the JSON artifact.
func runEval(w io.Writer, o options, top *netsim.Topology, collected []groundtruth.CollectedSubnet, tel *telemetry.Telemetry) error {
	truth := groundtruth.FromTopology(top, groundtruth.Options{ExcludeHostSubnets: o.evalCore})
	score := truth.Score(collected)
	fmt.Fprintln(w)
	if _, err := score.WriteText(w); err != nil {
		return err
	}
	score.Export(tel)
	if o.evalOut != "" {
		f, err := os.Create(o.evalOut)
		if err != nil {
			return err
		}
		if err := score.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "evaluation written to %s\n", o.evalOut)
	}
	return nil
}

// readTargets reads a destinations file: one address per line, '#' starts a
// comment, blank lines are skipped. Each address is checked here so a bad
// line is reported with its line number.
func readTargets(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var dests []string
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, err := ipv4.ParseAddr(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		dests = append(dests, line)
	}
	return dests, nil
}

// writeArtifacts flushes the telemetry artifacts and heap profile the flags
// asked for.
func writeArtifacts(w io.Writer, o options, tel *telemetry.Telemetry, traceFile, flightFile *os.File) error {
	if tel != nil {
		if tel.Tracer != nil {
			if err := tel.Tracer.Close(); err != nil {
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "trace written to %s (%d events)\n", o.traceOut, tel.Tracer.Events())
		}
		if o.metricsOut != "" {
			f, err := os.Create(o.metricsOut)
			if err != nil {
				return err
			}
			write := tel.Registry.WritePrometheus
			if strings.HasSuffix(o.metricsOut, ".json") {
				write = tel.Registry.WriteJSON
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "metrics written to %s\n", o.metricsOut)
		}
		if flightFile != nil {
			// A final snapshot after the incident dumps, so the artifact
			// carries the recorder's end-of-run tail whether the run ended
			// cleanly or was drained by a signal.
			if err := tel.DumpRecorder(flightFile, "end of run"); err != nil {
				return err
			}
			if err := flightFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "flight recorder: %d incident dump(s) in %s\n", tel.Incidents(), o.flightOut)
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
