package probe

import (
	"errors"
	"strings"
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/topo"
	"tracenet/internal/wire"
)

func addr(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func newProber(t *testing.T, cfg netsim.Config, opts Options) (*Prober, *netsim.Network) {
	t.Helper()
	n := netsim.New(topo.Figure3(), cfg)
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	return New(port, port.LocalAddr(), opts), n
}

func TestDirectProbeAlive(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	res, err := p.Direct(addr("10.0.2.3"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Alive() || res.Kind != EchoReply || res.From != addr("10.0.2.3") {
		t.Fatalf("res = %+v", res)
	}
}

func TestDirectProbeDeadAddress(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	res, err := p.Direct(addr("10.0.2.200"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent() {
		t.Fatalf("res = %+v", res)
	}
}

func TestIndirectProbeTTLExceeded(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	res, err := p.Probe(addr("10.0.5.2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Expired() || res.From != addr("10.0.1.1") {
		t.Fatalf("res = %+v", res)
	}
}

func TestProbeTTLValidation(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	if _, err := p.Probe(addr("10.0.5.2"), 0); err == nil {
		t.Fatal("ttl 0 accepted")
	}
	if _, err := p.Probe(addr("10.0.5.2"), 256); err == nil {
		t.Fatal("ttl 256 accepted")
	}
}

func TestUDPProbing(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{Protocol: UDP})
	res, err := p.Direct(addr("10.0.2.2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != PortUnreachable || !res.Alive() {
		t.Fatalf("res = %+v", res)
	}
	res, err = p.Probe(addr("10.0.5.2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Expired() {
		t.Fatalf("udp indirect res = %+v", res)
	}
}

func TestTCPProbing(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{Protocol: TCP})
	res, err := p.Direct(addr("10.0.2.2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != TCPReset || !res.Alive() {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetryOnSilence(t *testing.T) {
	// A 70%-loss network: a single-shot prober misses often, a retrying
	// prober much less. With seed 1 we just verify retry accounting.
	p, _ := newProber(t, netsim.Config{LossRate: 0.7, Seed: 1}, Options{Retry: &RetryPolicy{MaxRetries: 3}})
	var alive int
	for i := 0; i < 50; i++ {
		res, err := p.Direct(addr("10.0.2.3"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Alive() {
			alive++
		}
	}
	st := p.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries recorded under 70% loss")
	}
	// Four attempts under 70% loss succeed with p ≈ 0.76; a single shot only
	// 0.30. Anything above 30/50 demonstrates the retries are working.
	if alive < 30 {
		t.Fatalf("retrying prober succeeded only %d/50 under 70%% loss", alive)
	}
}

func TestNoRetry(t *testing.T) {
	p, _ := newProber(t, netsim.Config{LossRate: 1, Seed: 1}, Options{Retry: &RetryPolicy{}})
	if _, err := p.Direct(addr("10.0.2.3")); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Sent != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want exactly one packet", st)
	}
}

func TestBudgetEnforced(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{SharedBudget: NewSharedBudget(3), Retry: &RetryPolicy{}})
	for i := 0; i < 3; i++ {
		if _, err := p.Direct(addr("10.0.2.3")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Direct(addr("10.0.2.3"))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestCacheSavesProbes(t *testing.T) {
	p, n := newProber(t, netsim.Config{}, Options{Cache: true})
	for i := 0; i < 5; i++ {
		if _, err := p.Probe(addr("10.0.5.2"), 2); err != nil {
			t.Fatal(err)
		}
	}
	if n.Probes != 1 {
		t.Fatalf("network saw %d probes, want 1 (cached)", n.Probes)
	}
	if st := p.Stats(); st.Cached != 4 {
		t.Fatalf("cached = %d, want 4", st.Cached)
	}
}

func TestCacheDistinguishesTTL(t *testing.T) {
	p, n := newProber(t, netsim.Config{}, Options{Cache: true})
	if _, err := p.Probe(addr("10.0.5.2"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Probe(addr("10.0.5.2"), 3); err != nil {
		t.Fatal(err)
	}
	if n.Probes != 2 {
		t.Fatalf("network saw %d probes, want 2", n.Probes)
	}
}

func TestStatsAccounting(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{Retry: &RetryPolicy{}})
	_, _ = p.Direct(addr("10.0.2.3"))   // answered
	_, _ = p.Direct(addr("10.0.2.200")) // silent
	st := p.Stats()
	if st.Sent != 2 || st.Answered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKindAndProtocolStrings(t *testing.T) {
	kinds := map[Kind]string{
		None: "none", EchoReply: "echo-reply", TTLExceeded: "ttl-exceeded",
		PortUnreachable: "port-unreachable", HostUnreachable: "host-unreachable",
		TCPReset: "tcp-reset",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q", k, k.String())
		}
	}
	protos := map[Protocol]string{ICMP: "icmp", UDP: "udp", TCP: "tcp"}
	for p, want := range protos {
		if p.String() != want {
			t.Errorf("protocol %d = %q", p, p.String())
		}
	}
}

// TestSeqSurvivesUint16Wrap pins the sequence-counter widening: the prober's
// send counter is 32-bit, and with VaryFlow the flow window's phase rotates
// each time the low 16 bits lap, so the (flow, seq16) identifier pair a probe
// carries does not repeat after 65k sends. The old uint16 counter wrapped to
// an identical pair one lap later, risking replies of a stale probe being
// associated with a fresh one on long re-scan sessions.
func TestSeqSurvivesUint16Wrap(t *testing.T) {
	capture := func(p *Prober, seq uint32) (flow, seq16 uint16) {
		t.Helper()
		var raw []byte
		p.tr = staticTransport{reply: func(b []byte) []byte {
			raw = append([]byte(nil), b...)
			return nil
		}}
		p.exApp = nil // route through Exchange so the capture sees the bytes
		p.seq = seq
		if _, err := p.Probe(addr("10.0.2.3"), 7); err != nil {
			t.Fatal(err)
		}
		pkt, err := wire.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		return pkt.ICMP.ID, pkt.ICMP.Seq
	}

	p, _ := newProber(t, netsim.Config{}, Options{Protocol: ICMP, VaryFlow: true, Retry: &RetryPolicy{}})
	const base = 1<<16 - 2
	flowA, seqA := capture(p, base)
	if got := p.seq; got != base+1 {
		t.Fatalf("seq after send = %d, want %d (wrapped?)", got, base+1)
	}
	flowB, seqB := capture(p, base+1<<16) // same low 16 bits, one lap later
	if seqA != seqB {
		t.Fatalf("low 16 bits differ across laps: %d vs %d", seqA, seqB)
	}
	if flowA == flowB {
		t.Fatalf("flow %d repeated one lap later: (flow, seq16) pair not unique across a 16-bit wrap", flowA)
	}
}

// staticTransport replays canned responses for classifier edge cases.
type staticTransport struct {
	reply func(raw []byte) []byte
}

func (s staticTransport) Exchange(raw []byte) ([]byte, error) {
	if s.reply == nil {
		return nil, nil
	}
	r := s.reply(raw)
	return r, nil
}

func TestClassifierRejectsForeignEcho(t *testing.T) {
	src := addr("10.0.0.1")
	dst := addr("10.0.2.3")
	tr := staticTransport{reply: func(raw []byte) []byte {
		// An echo reply with the wrong ID must be ignored.
		rep := &wire.Packet{
			IP:   wire.IPHeader{TTL: 64, Src: dst, Dst: src},
			ICMP: &wire.ICMP{Type: wire.ICMPEchoReply, ID: 0x9999, Seq: 1},
		}
		out, _ := rep.Encode()
		return out
	}}
	p := New(tr, src, Options{Retry: &RetryPolicy{}})
	res, err := p.Direct(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent() {
		t.Fatalf("foreign echo accepted: %+v", res)
	}
}

func TestClassifierRejectsForeignQuote(t *testing.T) {
	src := addr("10.0.0.1")
	dst := addr("10.0.2.3")
	other := addr("172.16.0.9")
	tr := staticTransport{reply: func(raw []byte) []byte {
		// A time-exceeded quoting some other probe must be ignored.
		foreign := wire.NewEchoRequest(src, other, 9, 1, 1)
		rawForeign, _ := foreign.Encode()
		rep := wire.NewICMPError(addr("10.0.1.1"), wire.ICMPTimeExceeded, 0, rawForeign)
		out, _ := rep.Encode()
		return out
	}}
	p := New(tr, src, Options{Retry: &RetryPolicy{}})
	res, err := p.Probe(dst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent() {
		t.Fatalf("foreign quote accepted: %+v", res)
	}
}

func TestClassifierToleratesGarbageReply(t *testing.T) {
	tr := staticTransport{reply: func([]byte) []byte { return []byte{1, 2, 3} }}
	p := New(tr, addr("10.0.0.1"), Options{Retry: &RetryPolicy{}})
	res, err := p.Direct(addr("10.0.2.3"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent() {
		t.Fatalf("garbage reply classified: %+v", res)
	}
}

func TestRecordRouteStampsReturned(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{RecordRoute: true})
	// A direct probe four hops deep accumulates three forwarding stamps.
	res, err := p.Direct(addr("10.0.5.2"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Alive() {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Recorded) != 3 {
		t.Fatalf("recorded = %v, want 3 forwarding stamps", res.Recorded)
	}
	// An indirect probe's error quote carries the stamps up to the expiry.
	res, err = p.Probe(addr("10.0.5.2"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Expired() || len(res.Recorded) != 2 {
		t.Fatalf("indirect recorded = %v (kind %v), want 2 stamps", res.Recorded, res.Kind)
	}
}

func TestNoRecordRouteNoStamps(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	res, err := p.Direct(addr("10.0.5.2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recorded) != 0 {
		t.Fatalf("stamps without the RR option: %v", res.Recorded)
	}
}

func TestIPIDCountersPerRouter(t *testing.T) {
	p, _ := newProber(t, netsim.Config{}, Options{})
	// Consecutive probes answered by one router yield increasing IDs.
	r1, err := p.Direct(addr("10.0.2.3"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Direct(addr("10.0.4.0")) // same router R4
	if err != nil {
		t.Fatal(err)
	}
	if d := r2.IPID - r1.IPID; d == 0 || d > 8 {
		t.Fatalf("same-router IDs not from one counter: %d then %d", r1.IPID, r2.IPID)
	}
	// A different router answers from a far-away counter base.
	r3, err := p.Direct(addr("10.0.2.2")) // R3
	if err != nil {
		t.Fatal(err)
	}
	if d := r3.IPID - r2.IPID; d < 16 && r2.IPID-r3.IPID < 16 {
		t.Fatalf("different routers share a counter region: %d vs %d", r2.IPID, r3.IPID)
	}
}

func TestLoggingTransport(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	var events []ProbeEvent
	sink := func(ev ProbeEvent) { events = append(events, ev) }
	p := New(LoggingTransport{Inner: port, Sink: sink}, port.LocalAddr(), Options{Retry: &RetryPolicy{}})
	if _, err := p.Direct(addr("10.0.2.3")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Probe(addr("10.0.5.2"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Direct(addr("10.0.2.200")); err != nil {
		t.Fatal(err)
	}
	out := transcript(events)
	for _, want := range []string{"icmp 10.0.2.3 ttl=64", "echo-reply from 10.0.2.3",
		"ttl-exceeded from 10.0.1.1", "timeout"} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript lacks %q:\n%s", want, out)
		}
	}
}

// transcript renders collected probe events one per line, as a reader of the
// debug log sees them.
func transcript(events []ProbeEvent) string {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
