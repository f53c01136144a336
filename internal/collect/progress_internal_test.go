package collect

import (
	"strings"
	"testing"

	"tracenet/internal/telemetry"
)

// The watchdog files exactly one incident per stall episode: silence trips
// it once, resumed activity re-arms it, and renewed silence trips it again.
func TestWatchdogStallEpisodes(t *testing.T) {
	clock := &telemetry.ManualClock{}
	tel := telemetry.New(clock)
	tel.Recorder = telemetry.NewFlightRecorder(16)
	var dumps strings.Builder
	tel.SetIncidentWriter(&dumps)

	prog := NewProgress()
	prog.start("", 4, 2, nil, nil)
	wd := NewWatchdog(prog, tel, 100, "")
	stalls := tel.Counter("tracenet_campaign_stalls_total")

	if wd.Check(50) {
		t.Fatal("stalled before the window elapsed")
	}
	prog.Activity().MarkAt(60)
	if wd.Check(159) {
		t.Fatal("stalled with activity inside the window")
	}
	if !wd.Check(160) {
		t.Fatal("no stall after a full silent window")
	}
	if !wd.Check(200) {
		t.Fatal("ongoing stall not reported")
	}
	if got := stalls.Value(); got != 1 {
		t.Fatalf("stalls counter = %d after one episode, want 1", got)
	}
	if got := tel.Incidents(); got != 1 {
		t.Fatalf("incidents = %d after one episode, want 1", got)
	}
	if !strings.Contains(dumps.String(), "campaign-stall: no exchange completed since tick 60") {
		t.Errorf("stall incident dump missing or mislabelled:\n%s", dumps.String())
	}

	prog.Activity().MarkAt(210) // activity resumes: the episode re-arms
	if wd.Check(220) {
		t.Fatal("still stalled after activity resumed")
	}
	if !wd.Check(320) {
		t.Fatal("second silent window not detected")
	}
	if got := stalls.Value(); got != 2 {
		t.Fatalf("stalls counter = %d after two episodes, want 2", got)
	}

	prog.finish(&Report{})
	if wd.Check(9999) {
		t.Fatal("finished campaign reported as stalled")
	}
}

func TestWatchdogIgnoresUnstartedAndNil(t *testing.T) {
	var wd *Watchdog
	if wd.Check(1000) {
		t.Fatal("nil watchdog stalled")
	}
	if wd.Window() != 0 {
		t.Fatal("nil watchdog window nonzero")
	}
	prog := NewProgress() // never started
	wd = NewWatchdog(prog, nil, 0, "")
	if wd.Window() != DefaultStallWindow {
		t.Fatalf("window = %d, want default %d", wd.Window(), DefaultStallWindow)
	}
	if wd.Check(1 << 40) {
		t.Fatal("unstarted campaign reported as stalled")
	}
}

// A clock reading behind the last activity mark (possible when racing
// workers recorded a slightly newer tick) must read as fresh activity.
func TestWatchdogToleratesClockSkew(t *testing.T) {
	prog := NewProgress()
	prog.start("", 1, 1, nil, nil)
	wd := NewWatchdog(prog, nil, 10, "")
	prog.Activity().MarkAt(500)
	if wd.Check(499) {
		t.Fatal("now < last activity read as a stall")
	}
}
