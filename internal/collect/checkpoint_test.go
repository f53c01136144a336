package collect_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/core"
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
	if got.Reached != done.Reached || got.Hops != done.Hops || got.Subnets != done.Subnets || got.TraceProbes != done.TraceProbes {
		t.Errorf("restored row %+v, want the traced row %+v", got, done)
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

	// Resume saves probes: the restored subnets seed the frozen tier, so the
	// remaining target costs less than it does in a fresh campaign.
	fresh := runOrFatal(t, context.Background(), figure3Campaign("10.0.3.1"))
	if resumed.Stats.WireProbes >= fresh.Stats.WireProbes {
		t.Errorf("resumed campaign spent %d wire probes, fresh %d — no reuse",
			resumed.Stats.WireProbes, fresh.Stats.WireProbes)
	}
	if resumed.Stats.ProbesSaved == 0 {
		t.Error("frozen tier saved no probes for the remaining target")
	}
}

// TestResumeOneTarget: a campaign of one that resumes a checkpoint still
// builds the shared cache. A journaled target is restored without probing;
// an unjournaled one is served from the checkpoint's subnets.
func TestResumeOneTarget(t *testing.T) {
	cp := roundTrip(t, runOrFatal(t, context.Background(), figure3Campaign("10.0.5.2")).Checkpoint())

	cfg := figure3Campaign("10.0.5.2")
	cfg.Resume = cp
	restored := runOrFatal(t, context.Background(), cfg)
	if restored.Stats.Resumed != 1 || restored.Stats.WireProbes != 0 {
		t.Errorf("journaled target: stats %+v, want it resumed with no wire probes", restored.Stats)
	}

	// Drop the row, as for a target the journal never recorded done.
	cp.Rows = nil
	cfg = figure3Campaign("10.0.3.1")
	cfg.Resume = cp
	served := runOrFatal(t, context.Background(), cfg)
	fresh := runOrFatal(t, context.Background(), figure3Campaign("10.0.3.1"))
	if served.Stats.Done != 1 || served.Stats.ProbesSaved == 0 || served.Stats.WireProbes >= fresh.Stats.WireProbes {
		t.Errorf("unjournaled target: stats %+v, want it traced with checkpoint subnets saving probes (fresh run spent %d)",
			served.Stats, fresh.Stats.WireProbes)
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
	assertSameSubnets(t, second.Map, full.Map)
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

// TestResumeRowsEqualUninterrupted pins the composed resume property: a
// clean campaign cancelled after k targets and resumed from its checkpoint
// ends with the same per-target rows — and the same checkpoint bytes — as
// an uninterrupted run, at any worker count. The daemon's report is
// rendered from these rows.
func TestResumeRowsEqualUninterrupted(t *testing.T) {
	const k = 5
	full, _, _ := runCampaign(t, 1, nil)
	var want bytes.Buffer
	if err := collect.WriteCheckpoint(&want, full.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 4} {
		cfg := newCampaignNet(t)
		cfg.Parallel = parallel
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		cfg.OnTargetDone = func(collect.TargetResult) {
			if done.Add(1) == k {
				cancel()
			}
		}
		cut := runOrFatal(t, ctx, cfg)
		cancel()
		if cut.Stats.Done < k || cut.Stats.Done >= cut.Stats.Targets {
			t.Fatalf("parallel=%d: interrupted campaign completed %d of %d targets, want [%d, %d)",
				parallel, cut.Stats.Done, cut.Stats.Targets, k, cut.Stats.Targets)
		}

		resumed, _, _ := runCampaign(t, parallel, func(cfg *collect.Config) {
			cfg.Resume = roundTrip(t, cut.Checkpoint())
		})
		if resumed.Stats.Resumed != cut.Stats.Done {
			t.Errorf("parallel=%d: resumed %d targets, checkpoint journaled %d", parallel, resumed.Stats.Resumed, cut.Stats.Done)
		}
		for i := range full.Targets {
			w, g := full.Targets[i], resumed.Targets[i]
			if g.Status != collect.StatusDone && g.Status != collect.StatusResumed {
				t.Errorf("parallel=%d: %v ended %s", parallel, g.Dst, g.Status)
			}
			if g.Dst != w.Dst || g.Reached != w.Reached || g.Hops != w.Hops ||
				g.Subnets != w.Subnets || g.TraceProbes != w.TraceProbes {
				t.Errorf("parallel=%d: row %d = %+v, uninterrupted %+v", parallel, i, g, w)
			}
		}
		var got bytes.Buffer
		if err := collect.WriteCheckpoint(&got, resumed.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("parallel=%d: resumed checkpoint differs from the uninterrupted run's:\n--- uninterrupted\n%s--- resumed\n%s",
				parallel, want.String(), got.String())
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
// resume — at decode time for bad JSON and the retired v1 schema, at
// collect.Run for subnets or rows that do not validate.
func TestResumeRejectsBadCheckpoint(t *testing.T) {
	if _, err := collect.ReadCheckpoint(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	v1 := `{"version": 1, "targets": ["10.0.5.2"], "done": ["10.0.5.2"], "subnets": []}`
	if _, err := collect.ReadCheckpoint(strings.NewReader(v1)); err == nil ||
		!strings.Contains(err.Error(), "checkpoint version 1, want 2") {
		t.Errorf("v1 checkpoint: err = %v, want the version error", err)
	}

	sub := func(cs core.CheckpointSubnet) *collect.Checkpoint {
		return &collect.Checkpoint{Version: collect.CheckpointVersion, Subnets: []core.CheckpointSubnet{cs}}
	}
	for name, cp := range map[string]*collect.Checkpoint{
		"bad prefix":            sub(core.CheckpointSubnet{Prefix: "nope", Pivot: "10.0.0.1"}),
		"bad pivot":             sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "x"}),
		"member outside prefix": sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Addrs: []string{"10.9.0.1"}}),
		"confidence above one":  sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Confidence: 1.5}),
		"negative confidence":   sub(core.CheckpointSubnet{Prefix: "10.0.0.0/30", Pivot: "10.0.0.1", Confidence: -0.1}),
		"bad row":               {Version: collect.CheckpointVersion, Rows: []collect.CheckpointRow{{Dst: "not-an-ip"}}},
		"wrong version":         {Version: 1},
	} {
		cfg := figure3Campaign("10.0.5.2")
		cfg.Resume = cp
		if _, err := collect.Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: resume accepted", name)
		}
	}
}

// TestResumeLegacyConfidence: subnets checkpointed without a confidence key
// resume with confidence 1, so no resumed report carries a subnet outside
// the documented (0,1] range.
func TestResumeLegacyConfidence(t *testing.T) {
	cp, err := collect.ReadCheckpoint(strings.NewReader(`{"version": 2, "subnets": [
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
