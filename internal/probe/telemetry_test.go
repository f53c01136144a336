package probe

import (
	"errors"
	"strings"
	"testing"

	"tracenet/internal/invariant"
	"tracenet/internal/netsim"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// newTelemetryProber builds a figure-3 network serving as the telemetry
// clock, with the full observability pipeline attached.
func newTelemetryProber(t *testing.T, opts Options) (*Prober, *telemetry.Telemetry, *strings.Builder) {
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
	opts.Telemetry = tel
	return New(port, port.LocalAddr(), opts), tel, &trace
}

func TestProberTelemetryMirrorsStats(t *testing.T) {
	p, tel, _ := newTelemetryProber(t, Options{Cache: true})
	if _, err := p.Direct(addr("10.0.2.3")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Direct(addr("10.0.2.3")); err != nil { // served from cache
		t.Fatal(err)
	}
	if _, err := p.Direct(addr("10.0.2.200")); err != nil { // silent: retry + timeout
		t.Fatal(err)
	}
	st := p.Stats()
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"tracenet_probe_sent_total", st.Sent},
		{"tracenet_probe_answered_total", st.Answered},
		{"tracenet_probe_retries_total", st.Retries},
		{"tracenet_probe_cached_total", st.Cached},
		{"tracenet_probe_timeouts_total", st.Timeouts},
	} {
		if got := tel.Counter(tc.name, "proto", "icmp").Value(); got != tc.want {
			t.Errorf("%s = %d, want %d (Stats mirror broken)", tc.name, got, tc.want)
		}
	}
	if st.Sent == 0 || st.Cached == 0 || st.Timeouts == 0 {
		t.Fatalf("test did not exercise sent/cached/timeout paths: %+v", st)
	}
	if got := tel.Histogram("tracenet_probe_reply_ttl", ReplyTTLBuckets, "proto", "icmp").Count(); got != st.Answered {
		t.Errorf("reply-TTL observations = %d, want one per answered probe (%d)", got, st.Answered)
	}
}

func TestProberFlightRecorderAndTrace(t *testing.T) {
	p, tel, trace := newTelemetryProber(t, Options{Retry: &RetryPolicy{}})
	if _, err := p.Probe(addr("10.0.5.2"), 2); err != nil {
		t.Fatal(err)
	}
	snap := tel.Recorder.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("recorder holds %d events, want 1: %v", len(snap), snap)
	}
	for _, want := range []string{"icmp 10.0.5.2 ttl=2", "ttl-exceeded from 10.0.1.1", "rttl="} {
		if !strings.Contains(snap[0].Msg, want) {
			t.Errorf("recorded event lacks %q: %s", want, snap[0].Msg)
		}
	}
	if err := tel.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	for _, want := range []string{`"name":"probe"`, `"ph":"X"`, `"dst":"10.0.5.2"`, `"outcome":"ttl-exceeded"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %q:\n%s", want, out)
		}
	}
}

func TestBreakerOpenRaisesIncident(t *testing.T) {
	p, tel, _ := newTelemetryProber(t, Options{
		Retry:   &RetryPolicy{},
		Breaker: &BreakerConfig{Threshold: 2},
	})
	var dump strings.Builder
	tel.SetIncidentWriter(&dump)
	for i := 0; i < 3; i++ {
		if _, err := p.Direct(addr("10.0.2.200")); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().BreakerOpens == 0 {
		t.Fatal("breaker never opened; incident path not exercised")
	}
	if tel.Incidents() == 0 {
		t.Fatal("breaker opened without raising an incident")
	}
	out := dump.String()
	for _, want := range []string{"flight recorder dump #1", "breaker-open zone=10.0.2.0/24",
		"icmp 10.0.2.200"} {
		if !strings.Contains(out, want) {
			t.Errorf("incident dump lacks %q:\n%s", want, out)
		}
	}
}

// scriptedTransport replays canned (reply, err) outcomes in order.
type scriptedTransport struct {
	replies [][]byte
	errs    []error
	i       int
}

func (s *scriptedTransport) Exchange(raw []byte) ([]byte, error) {
	i := s.i
	s.i++
	return s.replies[i], s.errs[i]
}

func TestLoggingTransportClassifiesOutcomes(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	// A real echo reply, captured through the simulator.
	p := New(port, port.LocalAddr(), Options{Retry: &RetryPolicy{}})
	if _, err := p.Direct(addr("10.0.2.3")); err != nil {
		t.Fatal(err)
	}

	script := &scriptedTransport{
		replies: [][]byte{nil, nil, {0xde, 0xad, 0xbe, 0xef}},
		errs:    []error{nil, errors.New("socket shut"), nil},
	}
	var events []ProbeEvent
	lt := LoggingTransport{Inner: script, Clock: n, Sink: func(ev ProbeEvent) { events = append(events, ev) }}
	lp := New(lt, port.LocalAddr(), Options{Retry: &RetryPolicy{}})
	for i := 0; i < 3; i++ {
		lp.Probe(addr("10.0.9.9"), 3)
	}
	out := transcript(events)
	for _, want := range []string{
		"icmp 10.0.9.9 ttl=3 -> timeout",
		"icmp 10.0.9.9 ttl=3 -> error: transport",
		"icmp 10.0.9.9 ttl=3 -> error: decode(4 bytes)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript lacks %q:\n%s", want, out)
		}
	}
	// The Clock stamps each event with the tick its exchange completed at.
	if len(events) != 3 || n.Ticks() == 0 || events[0].Ticks != n.Ticks() {
		t.Errorf("events %+v, want 3 stamped at tick %d", events, n.Ticks())
	}
	if strings.Contains(out, "socket shut") {
		t.Errorf("transcript leaks the raw transport error instead of its kind:\n%s", out)
	}
}

func TestLoggingTransportLogsReplyTTL(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	var events []ProbeEvent
	p := New(LoggingTransport{Inner: port, Sink: func(ev ProbeEvent) { events = append(events, ev) }},
		port.LocalAddr(), Options{Retry: &RetryPolicy{}})
	if _, err := p.Probe(addr("10.0.5.2"), 2); err != nil {
		t.Fatal(err)
	}
	out := transcript(events)
	for _, want := range []string{"ttl-exceeded from 10.0.1.1", "rttl=", "ipid="} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript lacks %q:\n%s", want, out)
		}
	}
}

// raceEnabled is set in race builds, where allocation counts through
// netsim's scratch pool are not exact: the race detector makes sync.Pool
// drop items at random. Builds with invariants compiled in allocate for
// the assertions' arguments, so exact counts hold only without either.
var raceEnabled bool

// TestRegistryOnlyExchangeZeroAlloc: with a registry-only Telemetry —
// tracenetd's arrangement, no tracer and no flight recorder — an exchange
// builds no sink arguments, so a probe allocates what a bare prober's
// does, nothing, while its counters and the reply-TTL histogram still move.
func TestRegistryOnlyExchangeZeroAlloc(t *testing.T) {
	dst := addr("10.0.5.2")
	exchangeAllocs := func(metered bool) (*Prober, float64) {
		n := netsim.New(topo.Figure3(), netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Retry: &RetryPolicy{}}
		if metered {
			opts.Telemetry = telemetry.New(n)
			n.SetTelemetry(opts.Telemetry)
		}
		p := New(port, port.LocalAddr(), opts)
		return p, testing.AllocsPerRun(1000, func() {
			if _, err := p.Probe(dst, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	_, bare := exchangeAllocs(false)
	p, metered := exchangeAllocs(true)
	if !raceEnabled && !invariant.Enabled && (metered != 0 || bare != 0) {
		t.Errorf("registry-only Probe allocates %.1f per exchange, a bare one %.1f; want 0", metered, bare)
	}
	tel, proto := p.Telemetry(), p.Protocol().String()
	sent := tel.Counter("tracenet_probe_sent_total", "proto", proto).Value()
	ttls := tel.Histogram("tracenet_probe_reply_ttl", ReplyTTLBuckets, "proto", proto).Count()
	if st := p.Stats(); sent != st.Sent || ttls != st.Answered || sent == 0 {
		t.Errorf("sent_total %d, reply_ttl count %d; want %d sent, %d answered", sent, ttls, st.Sent, st.Answered)
	}
}

// TestDisabledTelemetryOverheadBudget verifies the "<5% when disabled"
// acceptance bound: the cost of the nil-guarded instrumentation sites a probe
// traverses, extrapolated generously, must stay under 5% of one probe
// exchange through the simulator.
func TestDisabledTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison under -short")
	}
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	p := New(port, port.LocalAddr(), Options{Retry: &RetryPolicy{}})
	probeBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Probe(addr("10.0.2.3"), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	guardBench := testing.Benchmark(func(b *testing.B) {
		var c *telemetry.Counter
		var tel *telemetry.Telemetry
		for i := 0; i < b.N; i++ {
			c.Add(1)
			tel.Record("probe", "")
		}
	})
	// One logical no-retry probe executes four nil-guarded operations on the
	// answered path (cSent, cAnswered, two p.tel checks); a guardBench
	// iteration covers two, so 4 iterations over-covers a probe twofold.
	guarded := 4 * guardBench.NsPerOp()
	budget := probeBench.NsPerOp() * 5 / 100
	t.Logf("probe=%dns guard16=%dns budget(5%%)=%dns", probeBench.NsPerOp(), guarded, budget)
	if guarded > budget {
		t.Errorf("disabled telemetry costs %dns per probe, over the 5%% budget of %dns",
			guarded, budget)
	}
}
