package collect_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// figure3Campaign returns a clean Figure 3 campaign config over dsts.
func figure3Campaign(dsts ...string) collect.Config {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	cfg := collect.Config{
		Probe: probe.Options{Cache: true},
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	}
	for _, d := range dsts {
		cfg.Targets = append(cfg.Targets, ipv4.MustParseAddr(d))
	}
	return cfg
}

// roundTrip serializes a checkpoint and reads it back, as a resume from disk
// does.
func roundTrip(t *testing.T, cp *collect.Checkpoint) *collect.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := collect.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	back, err := collect.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// runOrFatal runs one campaign.
func runOrFatal(t *testing.T, ctx context.Context, cfg collect.Config) *collect.Report {
	t.Helper()
	rep, err := collect.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCheckpointRoundTrip: a campaign checkpoint survives serialization with
// every subnet annotation and every completed target's row intact, and a
// campaign resumed from it restores the row instead of re-tracing, while
// reusing the restored subnets for the targets it still has to trace.
func TestCheckpointRoundTrip(t *testing.T) {
	first := runOrFatal(t, context.Background(), figure3Campaign("10.0.5.2"))
	cp := roundTrip(t, first.Checkpoint())
	if len(cp.Subnets) != len(first.Subnets()) {
		t.Fatalf("checkpoint has %d subnets, campaign %d", len(cp.Subnets), len(first.Subnets()))
	}
	if len(cp.Rows) != 1 || cp.Rows[0].Dst != "10.0.5.2" || !cp.Rows[0].Reached {
		t.Fatalf("checkpoint rows = %+v, want one reached row for 10.0.5.2", cp.Rows)
	}

	cfg := figure3Campaign("10.0.5.2", "10.0.3.1")
	cfg.Resume = cp
	resumed := runOrFatal(t, context.Background(), cfg)

	done := first.Targets[0]
	got := resumed.Targets[0]
	if got.Status != collect.StatusResumed {
		t.Fatalf("checkpointed target status %s, want resumed", got.Status)
	}
	if got.Result.String() != done.Result.String() || got.Result.TraceProbes != done.Result.TraceProbes ||
		fmt.Sprint(got.Result.Subnets) != fmt.Sprint(done.Result.Subnets) {
		t.Errorf("restored row:\n%s%v\nwant the traced row:\n%s%v",
			got.Result, got.Result.Subnets, done.Result, done.Result.Subnets)
	}
	if st := resumed.Targets[1].Status; st != collect.StatusDone {
		t.Errorf("untraced target status %s, want done", st)
	}

	want := first.Subnets()
	byPrefix := map[ipv4.Prefix]*core.Subnet{}
	for _, s := range resumed.Subnets() {
		byPrefix[s.Prefix] = s
	}
	for _, w := range want {
		g := byPrefix[w.Prefix]
		if g == nil {
			t.Errorf("resumed campaign lost subnet %v", w.Prefix)
			continue
		}
		if len(g.Addrs) != len(w.Addrs) || g.Pivot != w.Pivot || g.PivotDist != w.PivotDist ||
			g.ContraPivot != w.ContraPivot || g.Stop != w.Stop {
			t.Errorf("subnet %v annotations differ:\n got %+v\nwant %+v", w.Prefix, g, w)
		}
	}

	// Resume saves probes: the journaled hop contexts seed the cache, so the
	// remaining target costs less than it does in a fresh campaign.
	fresh := runOrFatal(t, context.Background(), figure3Campaign("10.0.3.1"))
	if resumed.Stats.WireProbes >= fresh.Stats.WireProbes {
		t.Errorf("resumed campaign spent %d wire probes, fresh %d — no reuse",
			resumed.Stats.WireProbes, fresh.Stats.WireProbes)
	}
	if resumed.Stats.ProbesSaved == 0 {
		t.Error("journaled hop contexts saved no probes for the remaining target")
	}
}

// TestResumeOneTarget: a campaign of one builds no shared cache, resumed or
// not. A journaled target is restored without probing; an unjournaled one
// is traced as a lone trace, whatever subnets the checkpoint lists.
func TestResumeOneTarget(t *testing.T) {
	first := runOrFatal(t, context.Background(), figure3Campaign("10.0.5.2"))
	cp := roundTrip(t, first.Checkpoint())

	cfg := figure3Campaign("10.0.5.2")
	cfg.Resume = cp
	restored := runOrFatal(t, context.Background(), cfg)
	if restored.Stats.Resumed != 1 || restored.Stats.WireProbes != 0 {
		t.Errorf("journaled target: stats %+v, want it resumed with no wire probes", restored.Stats)
	}
	var want, got bytes.Buffer
	if _, err := first.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("restored report differs from the traced one:\n--- traced\n%s--- restored\n%s", want.String(), got.String())
	}

	// Drop the row, as for a target the journal never recorded done.
	cp.Rows = nil
	cfg = figure3Campaign("10.0.3.1")
	cfg.Resume = cp
	traced := runOrFatal(t, context.Background(), cfg)
	fresh := runOrFatal(t, context.Background(), figure3Campaign("10.0.3.1"))
	if traced.Stats != fresh.Stats {
		t.Errorf("unjournaled target: stats %+v, want a fresh run's %+v", traced.Stats, fresh.Stats)
	}
}

// TestCheckpointMidCampaignResume splits a two-destination campaign across a
// checkpoint boundary — cancelled after its first target — and verifies the
// resumed run collects the same subnets as an uninterrupted one.
func TestCheckpointMidCampaignResume(t *testing.T) {
	full := runOrFatal(t, context.Background(), figure3Campaign("10.0.5.2", "10.0.3.1"))

	ctx, cancel := context.WithCancel(context.Background())
	cfg := figure3Campaign("10.0.5.2", "10.0.3.1")
	cfg.OnTargetDone = func(collect.TargetResult) { cancel() }
	first := runOrFatal(t, ctx, cfg)
	if first.Stats.Done != 1 || first.Stats.Skipped != 1 {
		t.Fatalf("interrupted campaign stats %+v, want 1 done and 1 skipped", first.Stats)
	}

	cfg = figure3Campaign("10.0.5.2", "10.0.3.1")
	cfg.Resume = roundTrip(t, first.Checkpoint())
	second := runOrFatal(t, context.Background(), cfg)
	if second.Stats.Resumed != 1 || second.Stats.Done != 1 {
		t.Fatalf("resumed campaign stats %+v, want 1 resumed and 1 done", second.Stats)
	}
	assertSameMap(t, second.Map, full.Map)
}

// TestCheckpointRestoreTelemetry: resumed state is visible in telemetry —
// the restored targets count under the resumed status of
// tracenet_campaign_targets_total, apart from the targets traced in this run.
func TestCheckpointRestoreTelemetry(t *testing.T) {
	full, _, _ := runCampaign(t, 1, nil)
	cp := full.Checkpoint()
	half := len(cp.Rows) / 2
	cp.Rows = cp.Rows[:half]

	cfg := newCampaignNet(t)
	cfg.Resume = cp
	resumed := runOrFatal(t, context.Background(), cfg)
	reg := cfg.Telemetry.Registry
	if got := reg.Counter("tracenet_campaign_targets_total", "status", "resumed").Value(); got != uint64(half) {
		t.Errorf("resumed targets counter = %d, want %d", got, half)
	}
	if got := reg.Counter("tracenet_campaign_targets_total", "status", "done").Value(); got != uint64(resumed.Stats.Done) {
		t.Errorf("done targets counter = %d, want %d", got, resumed.Stats.Done)
	}
}

// TestResumeEqualsUninterrupted is the exact-resume property: a clean
// campaign cut after k finished targets and resumed from its round-tripped
// checkpoint renders everything the uninterrupted run renders — the report,
// the checkpoint bytes and the eval document — and the cut and resumed runs
// together put exactly the uninterrupted run's wire probes on the wire, at
// any worker count.
func TestResumeEqualsUninterrupted(t *testing.T) {
	type outcome struct {
		rep                        *collect.Report
		report, checkpoint, scored string
	}
	// run resolves a fresh campaign for seed and runs it, cancelled once
	// cut targets have finished (0 = never) and resumed from resume.
	run := func(t *testing.T, seed int64, parallel, cut int, resume *collect.Checkpoint) outcome {
		t.Helper()
		c, err := (&daemon.Spec{Topology: "random", Seed: seed, Parallel: parallel}).Resolve("")
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config
		cfg.Resume = resume
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
		rep := runOrFatal(t, ctx, cfg)
		var report, cp, eval bytes.Buffer
		if _, err := rep.WriteTo(&report); err != nil {
			t.Fatal(err)
		}
		if err := collect.WriteCheckpoint(&cp, rep.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		truth := groundtruth.FromTopology(c.Scenario.Topo, groundtruth.Options{})
		if err := truth.Score(groundtruth.FromCoreSubnets(rep.Subnets())).WriteJSON(&eval); err != nil {
			t.Fatal(err)
		}
		return outcome{rep, report.String(), cp.String(), eval.String()}
	}

	for seed := int64(1); seed <= 12; seed++ {
		full := run(t, seed, 1, 0, nil)
		for _, parallel := range []int{1, 4} {
			for _, k := range []int{1, 5, 20} {
				t.Run(fmt.Sprintf("seed%d/p%d/k%d", seed, parallel, k), func(t *testing.T) {
					cut := run(t, seed, parallel, k, nil)
					if n := cut.rep.Stats.Done; n < min(k, full.rep.Stats.Targets) {
						t.Fatalf("cut campaign finished %d targets, want at least %d", n, k)
					}
					resumed := run(t, seed, parallel, 0, roundTrip(t, cut.rep.Checkpoint()))
					if resumed.rep.Stats.Resumed != cut.rep.Stats.Done {
						t.Errorf("resumed %d targets, the checkpoint journaled %d", resumed.rep.Stats.Resumed, cut.rep.Stats.Done)
					}
					if resumed.report != full.report {
						t.Errorf("resumed report differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s",
							full.report, resumed.report)
					}
					if resumed.checkpoint != full.checkpoint {
						t.Errorf("resumed checkpoint differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s",
							full.checkpoint, resumed.checkpoint)
					}
					if resumed.scored != full.scored {
						t.Errorf("resumed eval differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s",
							full.scored, resumed.scored)
					}
					if got, want := cut.rep.Stats.WireProbes+resumed.rep.Stats.WireProbes, full.rep.Stats.WireProbes; got != want {
						t.Errorf("cut + resumed runs sent %d + %d = %d wire probes, the uninterrupted run %d",
							cut.rep.Stats.WireProbes, resumed.rep.Stats.WireProbes, got, want)
					}
				})
			}
		}
	}
}

// TestCheckpointMismatch: a checkpoint written by another campaign is
// refused with ErrCheckpointMismatch instead of being rendered as this
// campaign's outcomes.
func TestCheckpointMismatch(t *testing.T) {
	cfg := figure3Campaign("10.0.5.2")
	cfg.ID = "c0001"
	cp := runOrFatal(t, context.Background(), cfg).Checkpoint()

	t.Run("campaign id", func(t *testing.T) {
		cfg := figure3Campaign("10.0.5.2")
		cfg.ID = "c0002"
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); !errors.Is(err, collect.ErrCheckpointMismatch) {
			t.Fatalf("foreign campaign_id: err = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("row outside targets", func(t *testing.T) {
		cfg := figure3Campaign("10.0.3.1")
		cfg.ID = "c0001"
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); !errors.Is(err, collect.ErrCheckpointMismatch) {
			t.Fatalf("row for a non-target: err = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("spec digest", func(t *testing.T) {
		cfg := figure3Campaign("10.0.5.2")
		cfg.ID = "c0001"
		cfg.Digest = "another spec"
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); !errors.Is(err, collect.ErrCheckpointMismatch) {
			t.Fatalf("foreign digest: err = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("anonymous resume", func(t *testing.T) {
		// An anonymous campaign (the CLI's) may resume an identified one's
		// checkpoint over the same targets.
		cfg := figure3Campaign("10.0.5.2", "10.0.3.1")
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); err != nil {
			t.Fatalf("anonymous resume refused: %v", err)
		}
	})
}

// TestResumeRejectsBadCheckpoint: every malformed checkpoint fails the
// resume — at decode time for bad JSON and the retired v1, v2 and v3 schemas,
// and both at decode time and at collect.Run for subnets, rows or paths
// that do not validate.
func TestResumeRejectsBadCheckpoint(t *testing.T) {
	if _, err := collect.ReadCheckpoint(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	for _, old := range retiredCheckpoints {
		if _, err := collect.ReadCheckpoint(strings.NewReader(old)); err == nil ||
			!strings.Contains(err.Error(), "want 4") {
			t.Errorf("%s: err = %v, want the version error", old, err)
		}
	}

	for name, cp := range badCheckpoints() {
		var buf bytes.Buffer
		if err := collect.WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		if _, err := collect.ReadCheckpoint(&buf); err == nil {
			t.Errorf("%s: ReadCheckpoint accepted it", name)
		}
		cfg := figure3Campaign("10.0.5.2")
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: resume accepted", name)
		}
	}
}

// retiredCheckpoints are checkpoints in the v1, v2 and v3 schemas.
var retiredCheckpoints = []string{
	`{"version": 1, "targets": ["10.0.5.2"], "done": ["10.0.5.2"], "subnets": []}`,
	`{"version": 2, "rows": [{"dst": "10.0.5.2", "reached": true, "hops": 4, "subnets": 3}]}`,
	`{"version": 3, "rows": [{"dst": "10.0.5.2", "reached": true, "path_addrs": [167772418], "path_subnets": [-1], "path_marks": [2]}]}`,
}

// badCheckpoints returns checkpoints that decode but do not validate, by the
// fault each one carries.
func badCheckpoints() map[string]*collect.Checkpoint {
	sub := func(cs core.CheckpointSubnet) *collect.Checkpoint {
		return &collect.Checkpoint{Version: collect.CheckpointVersion, Subnets: []core.CheckpointSubnet{cs}}
	}
	path := func(rows ...collect.CheckpointRow) *collect.Checkpoint {
		return &collect.Checkpoint{Version: collect.CheckpointVersion, Rows: rows,
			Subnets: []core.CheckpointSubnet{{Prefix: "10.0.1.0/30", Pivot: "10.0.1.2", Addrs: []string{"10.0.1.1", "10.0.1.2"}}}}
	}
	hop := collect.CheckpointRow{Dst: "10.0.5.2", Addrs: []uint32{uint32(ipv4.MustParseAddr("10.0.1.2"))}, Subnets: []int32{0}, Marks: []uint16{2}}
	withSubnet := func(i int32) collect.CheckpointRow { r := hop; r.Subnets = []int32{i}; return r }
	withMarks := func(m uint16) collect.CheckpointRow { r := hop; r.Marks = []uint16{m}; return r }
	short := hop
	short.Marks = nil
	return map[string]*collect.Checkpoint{
		"bad prefix":            sub(core.CheckpointSubnet{Prefix: "nope", Pivot: "10.0.0.1"}),
		"bad pivot":             sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "x"}),
		"member outside prefix": sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Addrs: []string{"10.9.0.1"}}),
		"confidence above one":  sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Confidence: 1.5}),
		"negative confidence":   sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Confidence: -0.1}),
		"bad row":               {Version: collect.CheckpointVersion, Rows: []collect.CheckpointRow{{Dst: "not-an-ip"}}},
		"duplicate row":         path(hop, hop),
		"subnet index past end": path(withSubnet(1)),
		"negative subnet index": path(withSubnet(-2)),
		"unknown kind":          path(withMarks(6)),
		"unknown mark bit":      path(withMarks(0x20)),
		"ragged path":           path(short),
		"wrong version":         {Version: 1},
		"ragged memo": {Version: collect.CheckpointVersion,
			Memo: &probe.MemoJournal{Keys: []uint64{0x0a00050201}, Replies: []uint64{0}}},
		"unsorted memo": {Version: collect.CheckpointVersion,
			Memo: &probe.MemoJournal{Keys: []uint64{0x0a00050202, 0x0a00050201}, Replies: []uint64{0, 0}, Costs: []uint64{1, 1}}},
		"memo ttl 0": {Version: collect.CheckpointVersion,
			Memo: &probe.MemoJournal{Keys: []uint64{0x0a00050200}, Replies: []uint64{0}, Costs: []uint64{1}}},
		"memo cost of no packets": {Version: collect.CheckpointVersion,
			Memo: &probe.MemoJournal{Keys: []uint64{0x0a00050201}, Replies: []uint64{0}, Costs: []uint64{0}}},
	}
}

// cutCheckpoint runs the campaign, cancelled once cut targets have finished
// (0 = never), and returns its checkpoint.
func cutCheckpoint(t testing.TB, cfg collect.Config, cut int) *collect.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	cfg.OnTargetDone = func(collect.TargetResult) {
		if done.Add(1) == int64(cut) {
			cancel()
		}
	}
	rep, err := collect.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Checkpoint()
}

// TestCheckpointJournalsMemoWhileUnfinished: a cut campaign's checkpoint
// journals the probe memo, sorted by key; a complete campaign's, or one run
// without sharing, carries none.
func TestCheckpointJournalsMemoWhileUnfinished(t *testing.T) {
	resolve := func(sp daemon.Spec) collect.Config {
		c, err := sp.Resolve("")
		if err != nil {
			t.Fatal(err)
		}
		return c.Config
	}
	cut := cutCheckpoint(t, resolve(daemon.Spec{Topology: "random", Seed: 3}), 5)
	if cut.Memo == nil || len(cut.Memo.Keys) == 0 {
		t.Fatal("cut checkpoint journals no probe memo")
	}
	if err := cut.Memo.Validate(); err != nil {
		t.Errorf("cut checkpoint's memo: %v", err)
	}
	if full := cutCheckpoint(t, resolve(daemon.Spec{Topology: "random", Seed: 3}), 0); full.Memo != nil {
		t.Errorf("complete checkpoint journals a memo of %d keys", len(full.Memo.Keys))
	}
	if unshared := cutCheckpoint(t, resolve(daemon.Spec{Topology: "random", Seed: 3, DisableCache: true}), 5); unshared.Memo != nil {
		t.Errorf("a campaign without sharing journals a memo of %d keys", len(unshared.Memo.Keys))
	}
}

// TestResumeLegacyConfidence: subnets checkpointed without a confidence key
// resume with confidence 1, so no resumed report carries a subnet outside
// the documented (0,1] range.
func TestResumeLegacyConfidence(t *testing.T) {
	// The row's two hops are 10.0.1.2 and 10.0.2.0, answering ttl-exceeded.
	cp, err := collect.ReadCheckpoint(strings.NewReader(`{"version": 4, "rows": [
		{"dst": "10.0.5.2", "path_addrs": [167772418, 167772672], "path_subnets": [0, 1], "path_marks": [2, 2]}
	], "subnets": [
		{"prefix": "10.0.1.0/30", "addrs": ["10.0.1.1", "10.0.1.2"], "pivot": "10.0.1.2", "pivot_dist": 1},
		{"prefix": "10.0.2.0/31", "addrs": ["10.0.2.0", "10.0.2.1"], "pivot": "10.0.2.0", "pivot_dist": 2, "confidence": 0.75, "degraded": true}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := figure3Campaign("10.0.5.2")
	cfg.Resume = cp
	rep := runOrFatal(t, context.Background(), cfg)
	seen := 0
	for _, s := range rep.Subnets() {
		if s.Confidence <= 0 || s.Confidence > 1 {
			t.Errorf("subnet %v has confidence %v outside (0,1]", s.Prefix, s.Confidence)
		}
		switch s.Prefix.String() {
		case "10.0.1.0/30":
			seen++
			if s.Confidence != 1 || s.Degraded {
				t.Errorf("legacy subnet resumed as confidence=%v degraded=%v, want 1 false", s.Confidence, s.Degraded)
			}
		case "10.0.2.0/31":
			seen++
			if s.Confidence != 0.75 || !s.Degraded {
				t.Errorf("degraded subnet resumed as confidence=%v degraded=%v, want 0.75 true", s.Confidence, s.Degraded)
			}
		}
	}
	if seen != 2 {
		t.Errorf("resumed report carries %d of the 2 checkpointed subnets", seen)
	}
}
