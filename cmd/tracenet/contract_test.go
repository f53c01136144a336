package main

// The campaign contract harness. Sharing between a campaign's targets is
// sound only if no way of running the campaign changes what it reports, so
// every route a campaign takes — (1) collect.Run at any worker count, (2) a
// cut and its resume, (3) this command with flags or -spec, (4) tracenetd's
// submit, drain and restart, (5) a resume under another spec — is checked
// against one oracle per row: the bundle collect.Run yields at one worker.

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/telemetry"
)

// routeSet names the routes a row takes.
type routeSet struct {
	parallel    []int // route 1: collect.Run worker counts, the oracle's 1 first
	cuts        []int // route 2: cut after k finished targets (k below the target count)
	cutParallel []int // route 2 worker counts; each also resumes the complete checkpoint
	cli         []int // route 3: -parallel values
	cliFlags    bool  // route 3 runs the flag form beside -spec and resumes the first cut
	daemon      bool  // route 4
	refuse      bool  // route 5
}

var (
	cleanRoutes = routeSet{parallel: []int{1, 2, 8}, cuts: []int{1, 5, 20}, cutParallel: []int{1, 4},
		cli: []int{1, 2, 8}, cliFlags: true, daemon: true, refuse: true}
	// A faulted campaign is deterministic only at one worker and uncut
	// (ROADMAP: one time model).
	faultedRoutes = routeSet{parallel: []int{1}, cli: []int{1}, cliFlags: true, refuse: true}
	// One isps campaign takes about half a second through the command.
	ispsRoutes = routeSet{parallel: []int{1, 8}, cuts: []int{20}, cutParallel: []int{1}, cli: []int{1}}
)

// contractRow is one campaign the harness runs down its routes.
type contractRow struct {
	label string
	spec  daemon.Spec
	// plan is a fault plan the Spec cannot name, installed as -faults
	// installs it; nil for none.
	plan   func(*cli.Scenario) netsim.FaultPlan
	routes routeSet
}

func (r contractRow) faulted() bool { return r.spec.Chaos != 0 || r.plan != nil }

// contractRows are the clean campaigns, one isps campaign and the faulted
// campaigns.
func contractRows() []contractRow {
	rows := []contractRow{
		{label: "figure3-1", spec: daemon.Spec{Topology: "figure3"}, routes: cleanRoutes},
		{label: "internet2-1", spec: daemon.Spec{Topology: "internet2"}, routes: cleanRoutes},
		{label: "geant-1", spec: daemon.Spec{Topology: "geant"}, routes: cleanRoutes},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rows = append(rows, contractRow{label: fmt.Sprintf("random-%d", seed),
			spec: daemon.Spec{Topology: "random", Seed: seed}, routes: cleanRoutes})
	}
	rows = append(rows, contractRow{label: "isps-7", spec: daemon.Spec{Topology: "isps", Seed: 7}, routes: ispsRoutes})
	for _, defend := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			r := contractRow{label: fmt.Sprintf("random-%d chaos=%d", seed, seed),
				spec: daemon.Spec{Topology: "random", Seed: seed, Chaos: seed}, routes: faultedRoutes}
			if defend {
				r.spec.Defend, r.spec.Backoff, r.spec.Breaker = true, true, true
				r.label += " defend backoff breaker"
			}
			rows = append(rows, r)
		}
	}
	return append(rows,
		contractRow{label: "internet2-1 every-kind", spec: daemon.Spec{Topology: "internet2"},
			plan: everyKindPlan, routes: faultedRoutes},
		contractRow{label: "random-2 every-kind", spec: daemon.Spec{Topology: "random", Seed: 2},
			plan: everyKindPlan, routes: faultedRoutes})
}

// everyKindPlan arms every fault kind over sc's topology. Every probe
// crosses the vantage's subnet and enters its gateway router, so the link
// flap and the blackhole strike inside their windows. Alias-confuse holds
// only the gateway, so liars strike elsewhere.
func everyKindPlan(sc *cli.Scenario) netsim.FaultPlan {
	lan := sc.Topo.HostByName(sc.Vantage).Ifaces[0].Subnet
	var gateway string
	for _, ifc := range lan.Ifaces {
		if !ifc.Router.IsHost {
			gateway = ifc.Router.Name
			break
		}
	}
	return netsim.FaultPlan{Seed: 11, Faults: []netsim.Fault{
		{Kind: netsim.FaultLinkFlap, Subnet: lan.Prefix.String(), From: 20, Until: 30},
		{Kind: netsim.FaultBlackhole, Router: gateway, From: 40, Until: 50},
		{Kind: netsim.FaultCorrupt, Prob: 0.05},
		{Kind: netsim.FaultTruncate, Prob: 0.05},
		{Kind: netsim.FaultDelay, Prob: 0.05},
		{Kind: netsim.FaultDuplicate, Prob: 0.5},
		{Kind: netsim.FaultRateStorm, Rate: 0.05, Burst: 2, From: 60, Until: 160},
		{Kind: netsim.FaultChurn, From: 100},
		{Kind: netsim.FaultLiar, Prob: 0.1},
		{Kind: netsim.FaultAliasConfuse, Router: gateway},
		{Kind: netsim.FaultHiddenHop, From: 200, Until: 220},
		{Kind: netsim.FaultEcho, Prob: 0.05},
	}}
}

// bundle is what a route yields for a campaign.
type bundle struct {
	report     string // Report.WriteTo
	checkpoint string // the campaign checkpoint, campaign_id removed
	eval       string // the ground-truth eval JSON
	// What went on the wire and what the faults inflicted; a cut's and its
	// resume's are summed.
	wire   uint64
	faults netsim.FaultStats
}

// plus returns b with a cut run's wire probes and faults added.
func (b bundle) plus(cut bundle) bundle {
	b.wire += cut.wire
	sum, add := reflect.ValueOf(&b.faults).Elem(), reflect.ValueOf(cut.faults)
	for i := range sum.NumField() {
		sum.Field(i).SetUint(sum.Field(i).Uint() + add.Field(i).Uint())
	}
	return b
}

// The checkpoint fields the golden masks — the schema version and the spec
// digest — and the campaign ID tracenetd adds.
var (
	digestField     = regexp.MustCompile(`"digest":"[0-9a-f]*",`)
	versionField    = regexp.MustCompile(`^\{"version":[0-9]+,`)
	campaignIDField = regexp.MustCompile(`"campaign_id":"[^"]*",`)
)

// line renders b as the row's golden line for a route class: sha256
// digests of the report, the eval JSON, the checkpoint without its version
// and digest and, for a faulted row, the fault statistics, then the wire
// total.
func (r contractRow) line(class string, b bundle) string {
	ck := versionField.ReplaceAllString(digestField.ReplaceAllString(b.checkpoint, ""), `{"version":_,`)
	line := fmt.Sprintf("%s %s report=%x eval=%x checkpoint=%x", r.label, class,
		sha256.Sum256([]byte(b.report)), sha256.Sum256([]byte(b.eval)), sha256.Sum256([]byte(ck)))
	if r.faulted() {
		line += fmt.Sprintf(" faults=%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", b.faults))))
	}
	return line + fmt.Sprintf(" wire=%d", b.wire)
}

// agree reports where what a route yielded departs from the oracle's bundle.
func agree(t *testing.T, what string, got, want bundle) {
	t.Helper()
	for _, f := range []struct{ name, got, want string }{
		{"report", got.report, want.report}, {"checkpoint", got.checkpoint, want.checkpoint}, {"eval", got.eval, want.eval},
	} {
		if f.got != f.want {
			t.Errorf("%s: the %s differs from the oracle's %s", what, f.name, firstDiff(f.got, f.want))
		}
	}
	if got.wire != want.wire || got.faults != want.faults {
		t.Errorf("%s: %d wire probes and faults %+v, the oracle's %d and %+v", what, got.wire, got.faults, want.wire, want.faults)
	}
}

// firstDiff shows where got first departs from want.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("at byte %d:\n got %q\nwant %q", i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// campaignRun is one collect.Run of a row.
type campaignRun struct {
	sc  *cli.Scenario
	rep *collect.Report
	b   bundle
	// state is the run's statistics, final Progress snapshot and metrics
	// exposition.
	state string
}

// collect resolves the row at parallel workers, installs its plan, and runs
// it with telemetry and a Progress attached, resumed from resume and
// cancelled once cut targets have finished (0 = never).
func (r contractRow) collect(t *testing.T, parallel, cut int, resume *collect.Checkpoint) campaignRun {
	t.Helper()
	sp := r.spec
	sp.Parallel = parallel
	c, err := sp.Resolve("")
	must(t, err)
	if r.plan != nil {
		must(t, c.InstallFaults(r.plan(c.Scenario)))
	}
	tel := telemetry.New(c.Net)
	c.Net.SetTelemetry(tel)
	prog := collect.NewProgress()
	cfg := c.Config
	cfg.Telemetry, cfg.Progress, cfg.Resume = tel, prog, resume
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cut > 0 {
		var done atomic.Int64
		cfg.OnTargetDone = func(collect.TargetResult) {
			if done.Add(1) == int64(cut) {
				cancel()
			}
		}
	}
	rep, err := collect.Run(ctx, cfg)
	must(t, err)
	var report, cp, eval, state bytes.Buffer
	_, err = rep.WriteTo(&report)
	must(t, err)
	must(t, collect.WriteCheckpoint(&cp, rep.Checkpoint()))
	truth := groundtruth.FromTopology(c.Scenario.Topo, groundtruth.Options{})
	must(t, truth.Score(groundtruth.FromCoreSubnets(rep.Subnets())).WriteJSON(&eval))
	progress, err := json.Marshal(prog.Snapshot())
	must(t, err)
	fmt.Fprintf(&state, "%+v\n%s\n", rep.Stats, progress)
	must(t, tel.Registry.WritePrometheus(&state))
	return campaignRun{sc: c.Scenario, rep: rep, state: state.String(),
		b: bundle{report: report.String(), checkpoint: cp.String(), eval: eval.String(),
			wire: rep.Stats.WireProbes, faults: c.Net.FaultStats()}}
}

// writeFile writes data into dir and returns the path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	must(t, os.WriteFile(path, data, 0o644))
	return path
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	must(t, err)
	return string(data)
}

// flags is the command line that runs the row: the flags a user gives, at
// the flag defaults elsewhere.
func (r contractRow) flags(plan string, parallel int) options {
	sp := r.spec
	return options{topo: sp.Topology, seed: cmp.Or(sp.Seed, 1), maxTTL: 30, parallel: parallel,
		chaos: sp.Chaos, defend: sp.Defend, backoff: sp.Backoff, breaker: sp.Breaker, faults: plan}
}

var (
	faultLines = regexp.MustCompile(`(?m)^(faults injected|byzantine replies): .*$`)
	digits     = regexp.MustCompile(`\d+`)
)

// cliRun runs the command with o, writing the campaign, eval and metrics
// artifacts into dir, and returns its stdout followed by its -metrics-out,
// and the bundle it yields. The fault lines print FaultStats' fields in
// order, the byzantine line only when one of its counts is not 0.
func (r contractRow) cliRun(t *testing.T, dir string, o options) (string, bundle) {
	t.Helper()
	o.campaignOut = filepath.Join(dir, "campaign.json")
	o.evalOut = filepath.Join(dir, "eval.json")
	o.metricsOut = filepath.Join(dir, "metrics.txt")
	var b strings.Builder
	must(t, run(&b, o))
	out := b.String()
	got := bundle{checkpoint: readFile(t, o.campaignOut), eval: readFile(t, o.evalOut)}
	start, end := strings.Index(out, "\ncampaign: "), strings.Index(out, "\nwire probes ")
	if _, err := fmt.Sscanf(out[max(end, 0)+1:], "wire probes %d", &got.wire); start < 0 || end < start || err != nil {
		t.Fatalf("stdout lacks the campaign report or the wire line:\n%s", out)
	}
	got.report = out[start+1 : end]
	if r.faulted() {
		fields := reflect.ValueOf(&got.faults).Elem()
		for i, n := range digits.FindAllString(strings.Join(faultLines.FindAllString(out, -1), "\n"), fields.NumField()) {
			v, _ := strconv.ParseUint(n, 10, 64)
			fields.Field(i).SetUint(v)
		}
	}
	return out + readFile(t, o.metricsOut), got
}

// TestCampaignContract runs every row down every route it takes. Every
// route yields the oracle's bundle: the command's stdout holds the report
// verbatim, tracenetd's report equals it once its "campaign <id> tenant
// <t>: " splice is undone and its checkpoint once campaign_id is removed,
// and a cut run's wire probes plus its resume's equal the oracle's. Route 1
// agrees across worker counts on the statistics, final Progress snapshot and
// metrics exposition, route 3 across -parallel values and between flags and
// -spec on whole stdout and -metrics-out. testdata/contract.golden pins one
// line per row and route class; UPDATE_GOLDEN=1 rewrites it.
func TestCampaignContract(t *testing.T) {
	rows := contractRows()
	lines := make([][]string, len(rows))
	wire := make([]uint64, len(rows))
	fig3 := rows[0].collect(t, 1, 0, nil).b
	t.Run("rows", func(t *testing.T) {
		for i, r := range rows {
			t.Run(r.label, func(t *testing.T) {
				t.Parallel()
				lines[i], wire[i] = r.check(t, fig3)
			})
		}
	})
	if t.Failed() {
		return
	}
	totals := map[string]uint64{}
	var got strings.Builder
	for i, r := range rows {
		if !r.faulted() {
			totals[r.spec.Topology] += wire[i]
		}
		for _, l := range lines[i] {
			got.WriteString(l + "\n")
		}
	}
	for topology, want := range map[string]uint64{"internet2": 3135, "geant": 4734, "random": 8338, "isps": 35666} {
		if totals[topology] != want {
			t.Errorf("%s campaigns sent %d wire probes, want %d", topology, totals[topology], want)
		}
	}

	path := filepath.Join("testdata", "contract.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		must(t, os.WriteFile(path, []byte(got.String()), 0o644))
	}
	want := readFile(t, path)
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("golden line %d moved (UPDATE_GOLDEN=1 rewrites it):\n got %s\nwant %s",
				i+1, gotLines[min(i, len(gotLines)-1)], wantLines[min(i, len(wantLines)-1)])
		}
	}
}

// check runs the row down its routes, each variant a subtest, and returns
// the row's golden lines (for each route class, its first variant's
// bundle) and its oracle's wire total.
func (r contractRow) check(t *testing.T, fig3 bundle) ([]string, uint64) {
	dir := t.TempDir()
	oracle := r.collect(t, r.routes.parallel[0], 0, nil)
	targets := oracle.rep.Stats.Targets
	if !r.faulted() && oracle.rep.Stats.Done != targets {
		t.Errorf("the oracle finished %d of %d targets: %+v", oracle.rep.Stats.Done, targets, oracle.rep.Stats)
	}
	if fs := oracle.b.faults; r.plan != nil {
		// Every kind a Spec's network can show strikes: duplication only
		// rescues a reply from loss, and a Spec's network loses none; churn
		// perturbs routes without counting.
		for kind, n := range map[string]uint64{
			"link-flap": fs.FlapDrops, "blackhole": fs.BlackholeDrops, "corrupt": fs.Corrupted,
			"truncate": fs.Truncated, "delay": fs.Delayed, "rate-storm": fs.StormDrops, "liar": fs.LiarSpoofs,
			"alias-confuse": fs.AliasShares, "hidden-hop": fs.HiddenDrops, "echo": fs.EchoMirrors,
		} {
			if n == 0 {
				t.Errorf("the every-kind plan's %s fault never struck: %+v", kind, fs)
			}
		}
	}
	if r.faulted() && oracle.b.faults.Total() == 0 {
		t.Logf("%s: FaultStats().Total() is 0", r.label)
	}
	var lines []string
	classes := map[string]bool{}
	add := func(class string, b bundle) {
		if !classes[class] {
			classes[class] = true
			lines = append(lines, r.line(class, b))
		}
	}
	add(fmt.Sprintf("p%d", r.routes.parallel[0]), oracle.b)

	// Route 1 at the other worker counts.
	for _, p := range r.routes.parallel[1:] {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			run := r.collect(t, p, 0, nil)
			agree(t, "the run", run.b, oracle.b)
			if run.state != oracle.state {
				t.Errorf("the statistics, final progress or metrics differ from the oracle's %s", firstDiff(run.state, oracle.state))
			}
			add(fmt.Sprintf("p%d", p), run.b)
		})
	}

	// Route 2. The oracle's complete checkpoint resumes too, as a cut after
	// every target.
	complete := cutCheckpoint{"complete", writeFile(t, dir, "complete.json", []byte(oracle.b.checkpoint)), oracle}
	var cuts []cutCheckpoint
	for _, p := range r.routes.cutParallel {
		for _, k := range r.routes.cuts {
			if k >= targets {
				continue
			}
			name := fmt.Sprintf("cut k=%d p%d", k, p)
			t.Run(name, func(t *testing.T) {
				run := r.collect(t, p, k, nil)
				if st := run.rep.Stats; st.Done < k || (p == 1 && st.Done != k) || st.Done+st.Skipped != targets {
					t.Errorf("stats %+v, want %d done and the rest skipped", st, k)
				}
				if run.rep.Checkpoint().Memo == nil {
					t.Error("the cut checkpoint journals no probe memo")
				}
				ck := cutCheckpoint{name, writeFile(t, dir, fmt.Sprintf("cut-k%d-p%d.json", k, p), []byte(run.b.checkpoint)), run}
				cuts = append(cuts, ck)
				add("cut", r.resume(t, p, ck, oracle))
			})
		}
		t.Run(fmt.Sprintf("complete p%d", p), func(t *testing.T) { add("cut", r.resume(t, p, complete, oracle)) })
	}

	// Route 3.
	var plan string
	if r.plan != nil {
		data, err := json.Marshal(r.plan(oracle.sc))
		must(t, err)
		plan = writeFile(t, dir, "plan.json", data)
	}
	var first, firstOut string
	for _, p := range r.routes.cli {
		sp := r.spec
		sp.Tenant, sp.Parallel = "alice", p
		var spec bytes.Buffer
		must(t, daemon.WriteSpec(&spec, &sp))
		forms := []options{{spec: writeFile(t, dir, "spec.json", spec.Bytes()), faults: plan}}
		if r.routes.cliFlags {
			forms = append(forms, r.flags(plan, p))
		}
		for _, o := range forms {
			name := fmt.Sprintf("flags p%d", p)
			if o.spec != "" {
				name = fmt.Sprintf("spec p%d", p)
			}
			t.Run(name, func(t *testing.T) {
				out, b := r.cliRun(t, dir, o)
				agree(t, "the run", b, oracle.b)
				if first == "" {
					first, firstOut = name, out
					add("cli", b)
				} else if out != firstOut {
					t.Errorf("stdout or -metrics-out differs from %s's %s", first, firstDiff(out, firstOut))
				}
			})
		}
	}
	if r.routes.cliFlags && len(cuts) > 0 {
		t.Run("resume "+cuts[0].name, func(t *testing.T) {
			o := r.flags(plan, 1)
			o.campaignResume = cuts[0].path
			_, b := r.cliRun(t, dir, o)
			agree(t, "the resumed run", b.plus(cuts[0].run.b), oracle.b)
		})
	}

	// Route 4.
	if r.routes.daemon {
		t.Run("tracenetd", func(t *testing.T) {
			row, behind := r.daemonRoute(t, dir, min(5, targets), targets)
			agree(t, "the row's campaign", row, oracle.b)
			agree(t, "the figure3 campaign", behind, fig3)
			add("tracenetd", row)
		})
	}

	// Route 5: the complete and the last cut checkpoint, the row's own spec
	// spelled out with its defaults. A faulted campaign's checkpoint that
	// leaves a target to trace again (a breaker-cut one) is a cut, so it is
	// only refused.
	if r.routes.refuse {
		checkpoints := append([]cutCheckpoint{complete}, cuts[max(0, len(cuts)-1):]...)
		own := r.flags(plan, 1)
		own.vantage, own.proto = oracle.sc.Vantage, "icmp"
		other := writeFile(t, dir, "other-plan.json", []byte(`{"seed": 3, "faults": [{"kind": "corrupt", "prob": 0.3}]}`))
		for _, ck := range checkpoints {
			t.Run("refuse "+ck.name, func(t *testing.T) {
				own.campaignResume = ck.path
				for name, mutate := range map[string]func(*options){
					"-proto udp":     func(o *options) { o.proto = "udp" },
					"-faults":        func(o *options) { o.chaos, o.faults = 0, other },
					"-chaos -defend": func(o *options) { o.faults, o.chaos, o.defend = "", r.spec.Chaos+1, true },
					"-maxttl 20":     func(o *options) { o.maxTTL = 20 },
				} {
					o := own
					mutate(&o)
					var b strings.Builder
					if err := run(&b, o); !errors.Is(err, collect.ErrCheckpointMismatch) || strings.Contains(b.String(), "resuming") {
						t.Errorf("under %s: err = %v, want ErrCheckpointMismatch and no resume line:\n%s", name, err, b.String())
					}
				}
				if r.faulted() && ck.run.rep.Stats.Done < targets {
					return
				}
				out, b := r.cliRun(t, dir, own)
				if !strings.Contains(out, "resuming campaign from") {
					t.Errorf("the resume under the row's own spec prints no resume line:\n%s", out)
				}
				agree(t, "the resume under the row's own spec", b.plus(ck.run.b), oracle.b)
				add("refuse", b.plus(ck.run.b))
			})
		}
	}
	return lines, oracle.b.wire
}

// cutCheckpoint is a checkpoint file and the run that wrote it.
type cutCheckpoint struct {
	name, path string
	run        campaignRun
}

// resume resumes the row at parallel workers from ck, checks the resumed
// run against the oracle, and returns its bundle with the cut run's wire
// probes and faults added.
func (r contractRow) resume(t *testing.T, parallel int, ck cutCheckpoint, oracle campaignRun) bundle {
	t.Helper()
	cp, err := collect.ReadCheckpoint(strings.NewReader(readFile(t, ck.path)))
	must(t, err)
	res := r.collect(t, parallel, 0, cp)
	st, journaled := res.rep.Stats, ck.run.rep.Stats.Done
	if st.Resumed != journaled || st.Done != st.Targets-journaled {
		t.Errorf("the resume restored %d and traced %d targets, want %d and %d", st.Resumed, st.Done, journaled, st.Targets-journaled)
	}
	got := res.b.plus(ck.run.b)
	agree(t, "the resumed run", got, oracle.b)
	return got
}

// logGate is tracenetd's log writer in route 4: it holds the worker that
// logs c0001's k-th target-done record until hold is closed. The logger
// calls it under its lock.
type logGate struct {
	k, seen   int
	hit, hold chan struct{}
}

func (g *logGate) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"msg":"target done","campaign":"c0001"`)) {
		if g.seen++; g.seen == g.k {
			close(g.hit)
			<-g.hold
		}
	}
	return len(p), nil
}

// tracenetd starts an in-process tracenetd on spool, logging at debug level
// into log, and returns it with its HTTP surface.
func tracenetd(t *testing.T, spool string, log io.Writer) (*daemon.Daemon, http.Handler) {
	t.Helper()
	d, err := daemon.New(daemon.Config{Spool: spool})
	must(t, err)
	d.SetLogger(obs.NewLogger(d.Clock(), log, obs.LevelDebug, 0))
	must(t, d.Start())
	srv := obs.NewServer(d.Telemetry(), nil)
	d.Attach(srv)
	return d, srv.Handler()
}

// get serves one GET request from h.
func get(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// await polls cond until it holds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
	}
}

// daemonRoute submits the row to an in-process tracenetd with a figure3
// eval campaign queued behind it, drains the daemon once k of the row's
// targets are done, restarts it on the same spool and lets both campaigns
// finish. It returns both campaigns' bundles, the row's wire probes summed
// over the two daemons.
func (r contractRow) daemonRoute(t *testing.T, dir string, k, targets int) (row, behind bundle) {
	t.Helper()
	spool := filepath.Join(dir, "spool")
	sp := r.spec
	sp.Tenant, sp.Parallel, sp.Eval = "alice", 2, true
	gate := &logGate{k: k, hit: make(chan struct{}), hold: make(chan struct{})}
	d, h := tracenetd(t, spool, gate)
	if id, err := d.Submit(&sp); err != nil || id != "c0001" {
		t.Fatalf("submitting the row: id %q, err %v", id, err)
	}
	// The figure3 campaign's "campaign accepted" record may wait on the
	// logger while the gate holds the row's worker; it is admitted and
	// journaled before it logs.
	behindID := make(chan string, 1)
	go func() {
		id, err := d.Submit(&daemon.Spec{Tenant: "bob", Topology: "figure3", Eval: true})
		if err != nil {
			t.Errorf("submitting the figure3 campaign: %v", err)
		}
		behindID <- id
	}()
	select {
	case <-gate.hit:
	case <-time.After(30 * time.Second):
		t.Fatalf("the row never finished %d targets", k)
	}
	await(t, "the figure3 campaign's admission", func() bool { _, err := d.Status("c0002"); return err == nil })
	drained := make(chan error, 1)
	go func() { drained <- d.Drain(context.Background()) }()
	// Drain marks the daemon draining and cancels its running campaigns
	// under one hold of its lock, so once /readyz reports draining the held
	// worker may go on.
	await(t, "/readyz to report draining", func() bool { _, body := get(h, "/readyz"); return strings.Contains(body, "draining") })
	close(gate.hold)
	must(t, <-drained)
	if id := <-behindID; id != "c0002" {
		t.Fatalf("the figure3 campaign was admitted as %q, want c0002", id)
	}
	cut := finalProgress(t, d, "c0001", "interrupted")
	_, journal := get(h, "/api/v1/campaigns/c0001/checkpoint")
	cp, err := collect.ReadCheckpoint(strings.NewReader(journal))
	must(t, err)
	if len(cp.Rows) < k || (k < targets && len(cp.Rows) == targets) {
		t.Errorf("drained after %d of %d targets, the spool journaled %d rows", k, targets, len(cp.Rows))
	}

	d, h = tracenetd(t, spool, io.Discard)
	if n := d.Telemetry().Registry.Counter("tracenet_daemon_spool_replayed_total").Value(); n != 2 {
		t.Errorf("the restart replayed %d campaigns, want 2", n)
	}
	// The queue runs c0001 before c0002.
	await(t, "both campaigns to finish", func() bool { doc, _ := d.Status("c0002"); return doc.Status == "done" })
	must(t, d.Drain(context.Background()))
	row = served(t, d, h, "c0001", "alice")
	row.wire += cut.WireProbes
	return row, served(t, d, h, "c0002", "bob")
}

// served reads a finished campaign's artifacts through tracenetd's API,
// with the report's "campaign <id> tenant <t>: " splice undone and the
// checkpoint's campaign_id removed.
func served(t *testing.T, d *daemon.Daemon, h http.Handler, id, tenant string) bundle {
	t.Helper()
	var b bundle
	for name, into := range map[string]*string{"report": &b.report, "eval": &b.eval, "checkpoint": &b.checkpoint} {
		code, body := get(h, "/api/v1/campaigns/"+id+"/"+name)
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d", id, name, code)
		}
		*into = body
	}
	splice := fmt.Sprintf("campaign %s tenant %s: ", id, tenant)
	if !strings.HasPrefix(b.report, splice) {
		t.Errorf("%s's report does not open with %q:\n%s", id, splice, b.report)
	}
	b.report = "campaign: " + strings.TrimPrefix(b.report, splice)
	b.checkpoint = campaignIDField.ReplaceAllString(b.checkpoint, "")
	b.wire = finalProgress(t, d, id, "done").WireProbes
	return b
}

// finalProgress returns a campaign's final progress snapshot, failing the
// test unless the campaign's status is want.
func finalProgress(t *testing.T, d *daemon.Daemon, id, want string) collect.Snapshot {
	t.Helper()
	doc, err := d.Status(id)
	if err != nil || doc.Status != want || doc.Progress == nil {
		t.Fatalf("%s: status %q (err %v), want %s with a final snapshot", id, doc.Status, err, want)
	}
	return *doc.Progress
}
