package collect_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// TestCampaignIDSeparatesMetrics runs two identified campaigns against one
// shared telemetry registry — the daemon's arrangement — and checks their
// series stay distinct: each campaign's probes land under its own
// ("campaign", id) label instead of adding into a collision.
func TestCampaignIDSeparatesMetrics(t *testing.T) {
	clk := &telemetry.ManualClock{}
	shared := telemetry.New(clk)

	run := func(id string) *collect.Report {
		t.Helper()
		tp, targets := topo.Random(campaignSpec)
		n := netsim.New(tp, netsim.Config{Seed: 7})
		cfg := collect.Config{
			ID:        id,
			Targets:   targets[:6],
			Probe:     probe.Options{Cache: true},
			Telemetry: shared,
			Progress:  collect.NewProgress(),
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				port, err := n.PortFor("vantage")
				if err != nil {
					return nil, err
				}
				return probe.New(port, port.LocalAddr(), opts), nil
			},
		}
		rep, err := collect.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Progress.ID(); got != id {
			t.Fatalf("Progress.ID() = %q, want %q", got, id)
		}
		if snap := cfg.Progress.Snapshot(); snap.ID != id {
			t.Fatalf("Snapshot.ID = %q, want %q", snap.ID, id)
		}
		return rep
	}

	repA := run("c0001")
	repB := run("c0002")

	var metrics bytes.Buffer
	if err := shared.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	exposition := metrics.String()
	for _, id := range []string{"c0001", "c0002"} {
		if !strings.Contains(exposition, `campaign="`+id+`"`) {
			t.Errorf("exposition lacks series for campaign %s:\n%s", id, exposition)
		}
	}
	// Identical same-seed campaigns must report identical per-campaign probe
	// totals — and the labeled counters must agree with the reports.
	for id, rep := range map[string]*collect.Report{"c0001": repA, "c0002": repB} {
		got := shared.Counter("tracenet_campaign_probes_total", "campaign", id).Value()
		if got != rep.Stats.WireProbes {
			t.Errorf("campaign %s probes_total = %d, report says %d", id, got, rep.Stats.WireProbes)
		}
	}

	// The identity follows the artifacts: report and checkpoint.
	if repA.ID != "c0001" || repB.ID != "c0002" {
		t.Fatalf("report IDs = %q, %q", repA.ID, repB.ID)
	}
	cp := repA.Checkpoint()
	if cp.CampaignID != "c0001" {
		t.Fatalf("checkpoint campaign_id = %q", cp.CampaignID)
	}
	var buf bytes.Buffer
	if err := collect.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	back, err := collect.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.CampaignID != "c0001" {
		t.Fatalf("serialized checkpoint campaign_id = %q:\n%s", back.CampaignID, buf.String())
	}
}

// TestCampaignWatchdogIDLabels: a per-campaign watchdog must label its stall
// counter and name the campaign in the incident it files.
func TestCampaignWatchdogIDLabels(t *testing.T) {
	clk := &telemetry.ManualClock{}
	tel := telemetry.New(clk)
	rec := telemetry.NewFlightRecorder(16)
	tel.Recorder = rec

	prog := collect.NewProgress()
	wd := collect.NewWatchdog(prog, tel, 100, "c0007")

	// An unstarted campaign never stalls.
	if wd.Check(1000) {
		t.Fatal("unstarted campaign reported stalled")
	}
	release := holdCampaignOpen(t, prog)
	defer release()
	if !wd.Check(5000) {
		t.Fatal("silent started campaign not stalled past the window")
	}
	if got := tel.Counter("tracenet_campaign_stalls_total", "campaign", "c0007").Value(); got != 1 {
		t.Fatalf("labeled stall counter = %d, want 1", got)
	}
	var dump bytes.Buffer
	if err := tel.DumpRecorder(&dump, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "campaign-stall c0007") {
		t.Fatalf("incident does not name the campaign:\n%s", dump.String())
	}
}

// holdCampaignOpen starts a real two-target campaign bound to prog and parks
// its first completed target inside OnTargetDone, so the Progress is started
// but guaranteed unfinished while the caller inspects it. The returned
// release lets the campaign run to completion.
func holdCampaignOpen(t *testing.T, prog *collect.Progress) (release func()) {
	t.Helper()
	tp, targets := topo.Random(campaignSpec)
	n := netsim.New(tp, netsim.Config{Seed: 7})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once bool
	done := make(chan struct{})
	cfg := collect.Config{
		ID:       "c0007",
		Targets:  targets[:2],
		Progress: prog,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := n.PortFor("vantage")
			if err != nil {
				return nil, err
			}
			return probe.New(port, port.LocalAddr(), opts), nil
		},
		OnTargetDone: func(collect.TargetResult) {
			if !once {
				once = true // Parallel defaults to 1: callbacks are sequential
				close(started)
				<-gate
			}
		},
	}
	go func() {
		defer close(done)
		if _, err := collect.Run(context.Background(), cfg); err != nil {
			t.Error(err)
		}
	}()
	<-started
	return func() {
		close(gate)
		<-done
	}
}
