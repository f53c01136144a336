package core

import (
	"encoding/json"
	"strings"
	"testing"

	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// telemetrySession builds a figure-3 session with the full observability
// pipeline: the network is the clock, the tracer writes into trace.
func telemetrySession(t *testing.T) (*Session, *telemetry.Telemetry, *strings.Builder) {
	t.Helper()
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(n)
	tel.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightRecorderSize)
	var trace strings.Builder
	tel.Tracer = telemetry.NewTracer(&trace)
	n.SetTelemetry(tel)
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Telemetry: tel})
	return NewSession(pr, Config{}), tel, &trace
}

func TestSessionTelemetry(t *testing.T) {
	s, tel, trace := telemetrySession(t)
	res, err := s.Trace(addr("10.0.5.2"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("not reached:\n%v", res)
	}

	if got := tel.Counter("tracenet_session_traces_total").Value(); got != 1 {
		t.Errorf("traces counter = %d, want 1", got)
	}
	if got := tel.Counter("tracenet_session_hops_total").Value(); got != uint64(len(res.Hops)) {
		t.Errorf("hops counter = %d, want %d", got, len(res.Hops))
	}
	if got := tel.Counter("tracenet_session_subnets_total").Value(); got != uint64(len(s.Subnets())) {
		t.Errorf("subnets counter = %d, want %d", got, len(s.Subnets()))
	}
	// Per-phase probe counters must reproduce the Result's accounting, which
	// is itself derived from the same Scope deltas.
	for _, tc := range []struct {
		phase string
		want  uint64
	}{
		{"trace", res.TraceProbes},
		{"position", res.PositionProbes},
		{"explore", res.ExploreProbes},
	} {
		if got := tel.Counter("tracenet_session_probes_total", "phase", tc.phase).Value(); got != tc.want {
			t.Errorf("phase %q probes = %d, want %d", tc.phase, got, tc.want)
		}
	}
	if got := tel.Histogram("tracenet_session_subnet_prefix_bits", SubnetPrefixBuckets).Count(); got != uint64(len(s.Subnets())) {
		t.Errorf("prefix-bits observations = %d, want %d", got, len(s.Subnets()))
	}

	// The trace must close into valid JSON holding the full span hierarchy.
	if err := tel.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(trace.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev["name"].(string)] = true
	}
	for _, want := range []string{"trace", "hop", "position", "explore", "probe"} {
		if !seen[want] {
			t.Errorf("trace lacks %q spans; saw %v", want, seen)
		}
	}
	// The trace span's scoped counters carry the probe accounting.
	if !strings.Contains(trace.String(), `"counts":{`) {
		t.Error("no span-scoped counts in trace output")
	}
}

func TestSessionDegradedSubnetRaisesIncident(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	if err := n.InstallFaults(netsim.FaultPlan{Seed: 3, Faults: []netsim.Fault{
		{Kind: netsim.FaultCorrupt, Prob: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(n)
	tel.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightRecorderSize)
	var dump strings.Builder
	tel.SetIncidentWriter(&dump)
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Telemetry: tel})
	s := NewSession(pr, Config{})
	if _, err := s.Trace(addr("10.0.5.2")); err != nil {
		t.Fatal(err)
	}
	if len(s.DegradedSubnets()) == 0 {
		t.Skip("seed produced no degraded subnet; incident path covered elsewhere")
	}
	if got := tel.Counter("tracenet_session_degraded_subnets_total").Value(); got != uint64(len(s.DegradedSubnets())) {
		t.Errorf("degraded counter = %d, want %d", got, len(s.DegradedSubnets()))
	}
	if !strings.Contains(dump.String(), "subnet-degraded") {
		t.Errorf("no subnet-degraded flight-recorder dump:\n%s", dump.String())
	}
}

func TestOrderedStopCounts(t *testing.T) {
	stats := map[StopReason]int{
		StopMinPrefix:     2,
		StopH3:            1,
		StopReason("H99"): 4, // unknown (e.g. future collector's checkpoint)
		StopReason("H10"): 3,
		StopNone:          9, // still growing: never rendered
		StopH2:            0, // zero: dropped
	}
	got := OrderedStopCounts(stats)
	want := []StopCount{
		{StopH3, 1}, {StopMinPrefix, 2}, {StopReason("H10"), 3}, {StopReason("H99"), 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStopStatsOrderedMatchesMap(t *testing.T) {
	s, _, _ := telemetrySession(t)
	if _, err := s.Trace(addr("10.0.5.2")); err != nil {
		t.Fatal(err)
	}
	stats := s.StopStats()
	total := 0
	for _, sc := range s.StopStatsOrdered() {
		if stats[sc.Reason] != sc.Count {
			t.Errorf("ordered count for %q = %d, map says %d", sc.Reason, sc.Count, stats[sc.Reason])
		}
		total += sc.Count
	}
	if want := len(s.Subnets()); total != want {
		t.Errorf("ordered counts total %d, want %d subnets", total, want)
	}
}
