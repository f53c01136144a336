package obs_test

import (
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/obs"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

func addr(t *testing.T, s string) ipv4.Addr {
	t.Helper()
	a, err := ipv4.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLoggerRendersJSONLines(t *testing.T) {
	clock := &telemetry.ManualClock{}
	var out strings.Builder
	lg := obs.NewLogger(clock, &out, obs.LevelDebug, 0)

	clock.Advance(412)
	lg.Info("target done", "dst", "10.0.3.7", "status", "done")
	want := `{"tick":412,"level":"info","msg":"target done","dst":"10.0.3.7","status":"done"}` + "\n"
	if out.String() != want {
		t.Errorf("rendered line:\n got %q\nwant %q", out.String(), want)
	}

	out.Reset()
	lg.Warn(`quote " backslash \ newline`+"\n", "k", "\x01ctl")
	want = `{"tick":412,"level":"warn","msg":"quote \" backslash \\ newline\n","k":"\u0001ctl"}` + "\n"
	if out.String() != want {
		t.Errorf("escaping:\n got %q\nwant %q", out.String(), want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var out strings.Builder
	lg := obs.NewLogger(nil, &out, obs.LevelWarn, 0)
	lg.Debug("drop me")
	lg.Info("drop me too")
	lg.Error("keep me")
	if got := out.String(); strings.Contains(got, "drop me") || !strings.Contains(got, "keep me") {
		t.Errorf("level filter broken:\n%s", got)
	}
	if lg.Total() != 1 {
		t.Errorf("total = %d, want 1 (filtered records must not count)", lg.Total())
	}
}

// Two identically-driven loggers over the same clock emit byte-identical
// streams — the logging half of the determinism contract.
func TestLoggerDeterministic(t *testing.T) {
	emit := func() string {
		clock := &telemetry.ManualClock{}
		var out strings.Builder
		lg := obs.NewLogger(clock, &out, obs.LevelDebug, 0)
		for i := 0; i < 50; i++ {
			clock.Advance(3)
			lg.Info("probe exchange", "dst", "10.0.1.1", "outcome", "ttl-exceeded")
			lg.Debug("cache", "hit", "true")
		}
		return out.String()
	}
	if a, b := emit(), emit(); a != b {
		t.Error("same-clock log streams differ between runs")
	}
}

func TestLoggerRingTail(t *testing.T) {
	lg := obs.NewLogger(nil, nil, obs.LevelDebug, 4)
	lg.Info("one")
	lg.Warn("two")
	lg.Info("three")
	lg.Warn("four")
	lg.Info("five") // evicts "one"

	tail := lg.Tail(10, obs.LevelDebug)
	if len(tail) != 4 {
		t.Fatalf("tail holds %d lines, want 4 (ring capacity)", len(tail))
	}
	if !strings.Contains(tail[0], "two") || !strings.Contains(tail[3], "five") {
		t.Errorf("tail order wrong: %v", tail)
	}

	warns := lg.Tail(10, obs.LevelWarn)
	if len(warns) != 2 || !strings.Contains(warns[0], "two") || !strings.Contains(warns[1], "four") {
		t.Errorf("level-filtered tail wrong: %v", warns)
	}
	if limited := lg.Tail(1, obs.LevelDebug); len(limited) != 1 || !strings.Contains(limited[0], "five") {
		t.Errorf("count-limited tail must keep the newest: %v", limited)
	}
	if lg.Total() != 5 {
		t.Errorf("total = %d, want 5", lg.Total())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var lg *obs.Logger
	lg.Info("into the void", "k", "v")
	if lg.Total() != 0 || lg.Tail(5, obs.LevelDebug) != nil {
		t.Fatal("nil logger retained something")
	}
}

func TestLoggerOddFieldsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd kv count did not panic")
		}
	}()
	obs.NewLogger(nil, nil, obs.LevelDebug, 0).Info("bad", "key-without-value")
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, lvl := range []obs.Level{obs.LevelDebug, obs.LevelInfo, obs.LevelWarn, obs.LevelError} {
		got, err := obs.ParseLevel(lvl.String())
		if err != nil || got != lvl {
			t.Errorf("ParseLevel(%q) = %v, %v", lvl.String(), got, err)
		}
	}
	if _, err := obs.ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestProbeSinkClassifiesEvents(t *testing.T) {
	lg := obs.NewLogger(nil, nil, obs.LevelDebug, 0)
	sink := obs.ProbeSink(lg)

	sink(probe.ProbeEvent{
		Proto: "icmp", Dst: addr(t, "10.0.5.2"), TTL: 3,
		Outcome: "ttl-exceeded", From: addr(t, "10.0.2.1"), ReplyTTL: 61,
	})
	sink(probe.ProbeEvent{Proto: "udp", Dst: addr(t, "10.0.5.3"), TTL: 4, Err: probe.ErrTimeout})
	sink(probe.ProbeEvent{Proto: "tcp", Dst: addr(t, "10.0.5.4"), TTL: 5, Err: probe.ErrDecode})

	all := lg.Tail(10, obs.LevelDebug)
	if len(all) != 3 {
		t.Fatalf("sink produced %d records, want 3: %v", len(all), all)
	}
	if !strings.Contains(all[0], `"outcome":"ttl-exceeded"`) || !strings.Contains(all[0], `"from":"10.0.2.1"`) {
		t.Errorf("clean exchange record wrong: %s", all[0])
	}
	if !strings.Contains(all[1], `"outcome":"timeout"`) || !strings.Contains(all[1], `"level":"debug"`) {
		t.Errorf("timeout must be a debug-level outcome: %s", all[1])
	}
	if !strings.Contains(all[2], `"level":"warn"`) || !strings.Contains(all[2], `"err":"decode"`) {
		t.Errorf("decode fault must log at warn: %s", all[2])
	}
}

// LoggingTransport hands each exchange to its sink, stamped by its clock.
func TestLoggingTransportSink(t *testing.T) {
	var events []probe.ProbeEvent
	clk := &telemetry.ManualClock{}
	clk.Advance(42)
	tr := probe.LoggingTransport{
		Inner: silentTransport{},
		Clock: clk,
		Sink:  func(ev probe.ProbeEvent) { events = append(events, ev) },
	}
	if _, err := tr.Exchange([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Ticks != 42 {
		t.Fatalf("sink saw %+v, want one event at tick 42", events)
	}
}

type silentTransport struct{}

func (silentTransport) Exchange([]byte) ([]byte, error) { return nil, nil }
