package probe

import (
	"errors"
	"math/rand"
	"testing"

	"tracenet/internal/wire"
)

func TestRetryPolicyValidate(t *testing.T) {
	for name, p := range map[string]RetryPolicy{
		"negative retries":       {MaxRetries: -1},
		"jitter out of range":    {MaxRetries: 1, BackoffBase: 2, Jitter: 1},
		"negative jitter":        {MaxRetries: 1, BackoffBase: 2, Jitter: -0.1},
		"jitter without backoff": {MaxRetries: 1, Jitter: 0.2},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: policy validated", name)
		}
	}
	for name, p := range map[string]RetryPolicy{
		"zero (no retry)": {},
		"plain retries":   {MaxRetries: 3},
		"full backoff":    {MaxRetries: 4, BackoffBase: 2, BackoffMax: 32, Jitter: 0.5},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRetryPolicyWaitDoubles(t *testing.T) {
	p := RetryPolicy{MaxRetries: 5, BackoffBase: 4, BackoffMax: 16}
	want := []uint64{4, 8, 16, 16, 16}
	for attempt, w := range want {
		if got := p.wait(attempt, nil); got != w {
			t.Errorf("wait(%d) = %d, want %d", attempt, got, w)
		}
	}
	if got := (RetryPolicy{MaxRetries: 1}).wait(0, nil); got != 0 {
		t.Errorf("wait without backoff = %d, want 0", got)
	}
}

func TestRetryPolicyWaitJitterBounds(t *testing.T) {
	p := RetryPolicy{MaxRetries: 1, BackoffBase: 100, Jitter: 0.3}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		w := p.wait(0, rng)
		if w < 70 || w > 130 {
			t.Fatalf("jittered wait %d outside [70,130]", w)
		}
	}
}

func TestOptionsRetryConflictPanics(t *testing.T) {
	for name, opts := range map[string]Options{
		"negative retries": {Retry: &RetryPolicy{MaxRetries: -2}},
		"bad breaker":      {Breaker: &BreakerConfig{Threshold: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(staticTransport{}, addr("10.0.0.1"), opts)
		}()
	}
}

func TestOptionsLegacyRetryEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want RetryPolicy
	}{
		{"default", Options{}, RetryPolicy{MaxRetries: 1}},
		{"noretry", Options{Retry: &RetryPolicy{}}, RetryPolicy{}},
		{"new policy", Options{Retry: &RetryPolicy{MaxRetries: 2, BackoffBase: 8}},
			RetryPolicy{MaxRetries: 2, BackoffBase: 8}},
	}
	for _, tc := range cases {
		p := New(staticTransport{}, addr("10.0.0.1"), tc.opts)
		if p.RetryPolicy() != tc.want {
			t.Errorf("%s: policy = %+v, want %+v", tc.name, p.RetryPolicy(), tc.want)
		}
	}
}

// waitTransport is a silent transport recording backoff waits.
type waitTransport struct {
	waited []uint64
}

func (w *waitTransport) Exchange(raw []byte) ([]byte, error) { return nil, nil }
func (w *waitTransport) Wait(ticks uint64)                   { w.waited = append(w.waited, ticks) }

func TestBackoffDrivesTransportWait(t *testing.T) {
	tr := &waitTransport{}
	p := New(tr, addr("10.0.0.1"), Options{
		Retry: &RetryPolicy{MaxRetries: 3, BackoffBase: 4, BackoffMax: 8},
	})
	if _, err := p.Probe(addr("10.0.9.9"), 8); err != nil {
		t.Fatal(err)
	}
	want := []uint64{4, 8, 8}
	if len(tr.waited) != len(want) {
		t.Fatalf("waited %v, want %v", tr.waited, want)
	}
	var total uint64
	for i, w := range want {
		if tr.waited[i] != w {
			t.Fatalf("waited %v, want %v", tr.waited, want)
		}
		total += w
	}
	st := p.Stats()
	if st.BackoffTicks != total {
		t.Errorf("BackoffTicks = %d, want %d", st.BackoffTicks, total)
	}
	if st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	if st.Sent != 4 || st.Retries != 3 {
		t.Errorf("Sent/Retries = %d/%d, want 4/3", st.Sent, st.Retries)
	}
}

func TestTransportErrorWrapped(t *testing.T) {
	boom := errors.New("cable cut")
	tr := errTransport{err: boom}
	p := New(tr, addr("10.0.0.1"), Options{Retry: &RetryPolicy{}})
	_, err := p.Probe(addr("10.0.9.9"), 8)
	if !errors.Is(err, ErrTransport) {
		t.Errorf("error %v does not wrap ErrTransport", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v lost the cause", err)
	}
}

type errTransport struct{ err error }

func (e errTransport) Exchange(raw []byte) ([]byte, error) { return nil, e.err }

func TestCorruptReplyCountedAsFault(t *testing.T) {
	tr := staticTransport{reply: func(raw []byte) []byte {
		return []byte{0xde, 0xad, 0xbe, 0xef}
	}}
	p := New(tr, addr("10.0.0.1"), Options{Retry: &RetryPolicy{}})
	res, err := p.Probe(addr("10.0.9.9"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent() {
		t.Errorf("corrupt reply classified as %v", res.Kind)
	}
	st := p.Stats()
	if st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	if st.FaultEvents() != 1 {
		t.Errorf("FaultEvents = %d, want 1", st.FaultEvents())
	}
}

// flakyZoneTransport answers echo probes normally except for destinations in
// a silent /24, controlled per-call.
type flakyZoneTransport struct {
	silentPrefix byte // third octet of the silent 10.0.x.0/24 zone
	sent         int
	reviveAfter  int // answer the silent zone once sent exceeds this (0 = never)
}

func (f *flakyZoneTransport) Exchange(raw []byte) ([]byte, error) {
	f.sent++
	pkt, err := wire.Decode(raw)
	if err != nil {
		return nil, err
	}
	inZone := byte(pkt.IP.Dst>>8) == f.silentPrefix
	if inZone && (f.reviveAfter == 0 || f.sent <= f.reviveAfter) {
		return nil, nil
	}
	return wire.NewEchoReply(pkt.IP.Dst, pkt).Encode()
}

func TestBreakerOpensSkipsAndHalfOpens(t *testing.T) {
	tr := &flakyZoneTransport{silentPrefix: 9}
	p := New(tr, addr("10.0.0.1"), Options{
		Retry:   &RetryPolicy{},
		Breaker: &BreakerConfig{Threshold: 3, Cooldown: 4, KeyBits: 24},
	})
	dst := addr("10.0.9.5")
	// Three silent probes trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := p.Probe(dst, 64); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 after threshold silences", st.BreakerOpens)
	}
	sentAtOpen := st.Sent
	// While open, probes are answered locally: no packets leave.
	skipped := 0
	for p.Stats().BreakerSkips < 3 {
		if _, err := p.Probe(dst, 64); err != nil {
			t.Fatal(err)
		}
		skipped++
		if skipped > 10 {
			t.Fatal("breaker never skipped")
		}
	}
	if p.Stats().Sent != sentAtOpen {
		t.Errorf("open breaker still sent packets: %d -> %d", sentAtOpen, p.Stats().Sent)
	}
	// After the cooldown a trial probe goes out; still silent, so it reopens.
	for p.Stats().BreakerOpens < 2 {
		if _, err := p.Probe(dst, 64); err != nil {
			t.Fatal(err)
		}
		if p.Stats().BreakerSkips > 40 {
			t.Fatal("breaker never half-opened")
		}
	}
	if p.Stats().Sent != sentAtOpen+1 {
		t.Errorf("half-open trial sent %d packets, want 1", p.Stats().Sent-sentAtOpen)
	}
}

func TestBreakerClosesOnAnswerAndScopesZones(t *testing.T) {
	tr := &flakyZoneTransport{silentPrefix: 9, reviveAfter: 3}
	p := New(tr, addr("10.0.0.1"), Options{
		Retry:   &RetryPolicy{},
		Breaker: &BreakerConfig{Threshold: 3, Cooldown: 2, KeyBits: 24},
	})
	// Trip the 10.0.9.0/24 zone.
	for i := 0; i < 3; i++ {
		if _, err := p.Probe(addr("10.0.9.5"), 64); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", p.Stats().BreakerOpens)
	}
	// A different zone is unaffected: its probes still go out and answer.
	res, err := p.Probe(addr("10.0.7.5"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent() {
		t.Error("healthy zone silenced by another zone's breaker")
	}
	// The zone has revived; once the breaker half-opens, the trial answer
	// closes it and probing resumes normally.
	var revived Result
	for i := 0; i < 20; i++ {
		revived, err = p.Probe(addr("10.0.9.6"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if !revived.Silent() {
			break
		}
	}
	if revived.Silent() {
		t.Fatal("breaker never recovered after the zone revived")
	}
	// Closed again: the next probe is sent immediately (no skip).
	sent := p.Stats().Sent
	if _, err := p.Probe(addr("10.0.9.7"), 64); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Sent != sent+1 {
		t.Error("closed breaker did not let the next probe through")
	}
}
