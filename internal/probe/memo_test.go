package probe

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"tracenet/internal/netsim"
	"tracenet/internal/topo"
)

// countingTransport counts the packets a prober puts on the wire; a gate,
// when set, holds the first packet of all counters sharing calls until it
// is closed.
type countingTransport struct {
	port  *netsim.Port
	sent  int
	calls *atomic.Int32
	gate  chan struct{}
}

func (c *countingTransport) Exchange(raw []byte) ([]byte, error) {
	c.sent++
	if c.calls != nil && c.calls.Add(1) == 1 {
		<-c.gate
	}
	return c.port.Exchange(raw)
}

func (c *countingTransport) Wait(ticks uint64) { c.port.Wait(ticks) }

// memoProbers builds n probers over one Figure 3 network sharing one memo.
func memoProbers(t *testing.T, n int, opts Options) ([]*Prober, []*countingTransport) {
	t.Helper()
	net := netsim.New(topo.Figure3(), netsim.Config{})
	opts.Memo = NewMemo()
	var prs []*Prober
	var trs []*countingTransport
	for i := 0; i < n; i++ {
		port, err := net.PortFor("vantage")
		if err != nil {
			t.Fatal(err)
		}
		tr := &countingTransport{port: port}
		prs = append(prs, New(tr, port.LocalAddr(), opts))
		trs = append(trs, tr)
	}
	return prs, trs
}

// withoutMemo clears the memo counters, leaving what the owner's exchanges
// and the asker's replays must agree on.
func withoutMemo(s Stats) Stats {
	s.MemoHits, s.MemoReplayed = 0, 0
	return s
}

// TestMemoReplaysOwnerAccounting: an asker served by the memo gets the
// owner's replies and exactly the owner's accounting — a silent key's
// retries, timeout and back-off included — while putting nothing on the
// wire; the memo counters say what was replayed.
func TestMemoReplaysOwnerAccounting(t *testing.T) {
	prs, trs := memoProbers(t, 2, Options{Cache: true, Retry: &RetryPolicy{MaxRetries: 2, BackoffBase: 4}})
	owner, asker := prs[0], prs[1]
	keys := []struct {
		dst string
		ttl int
	}{{"10.0.2.200", DirectTTL}, {"10.0.5.2", 2}, {"10.0.2.3", DirectTTL}}
	var want []Result
	for _, k := range keys {
		r, err := owner.Probe(addr(k.dst), k.ttl)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	own := owner.Stats()
	if own.Retries != 2 || own.Timeouts != 1 || own.BackoffTicks != 12 || own.Answered != 2 || own.Sent != 5 {
		t.Fatalf("owner stats %+v, want one silent key retried twice with 4+8 back-off ticks and two answered", own)
	}

	for i, k := range keys {
		r, err := asker.Probe(addr(k.dst), k.ttl)
		if err != nil {
			t.Fatal(err)
		}
		if packReply(r) != packReply(want[i]) {
			t.Errorf("%s ttl %d: asker got %+v, owner %+v", k.dst, k.ttl, r, want[i])
		}
	}
	as := asker.Stats()
	if withoutMemo(as) != withoutMemo(own) {
		t.Errorf("asker stats %+v, want the owner's %+v", as, own)
	}
	if as.MemoHits != 3 || as.MemoReplayed != own.Sent || as.Wire() != 0 || trs[1].sent != 0 {
		t.Errorf("asker memo hits %d replayed %d wire %d (transport %d), want 3 hits replaying %d packets and no wire",
			as.MemoHits, as.MemoReplayed, as.Wire(), trs[1].sent, own.Sent)
	}
	if own.MemoHits != 0 || own.Wire() != own.Sent || trs[0].sent != int(own.Sent) {
		t.Errorf("owner stats %+v over %d wire packets, want every packet its own", own, trs[0].sent)
	}

	// A repeat inside the asker's cache epoch is free, as without the memo.
	if _, err := asker.Probe(addr("10.0.5.2"), 2); err != nil {
		t.Fatal(err)
	}
	if st := asker.Stats(); st.Cached != 1 || st.MemoHits != 3 {
		t.Errorf("repeat: stats %+v, want one cache hit and no further memo hit", st)
	}
}

// TestMemoSingleFlight: probers racing on one key put it on the wire once;
// every other prober waits for the owner's reply and replays it.
func TestMemoSingleFlight(t *testing.T) {
	const n = 8
	prs, trs := memoProbers(t, n, Options{})
	var calls atomic.Int32
	gate := make(chan struct{})
	for _, tr := range trs {
		tr.calls, tr.gate = &calls, gate
	}
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := range prs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := prs[i].Probe(addr("10.0.5.2"), 3)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d wire exchanges for one key, want 1", got)
	}
	var hits uint64
	for i, pr := range prs {
		hits += pr.Stats().MemoHits
		if packReply(results[i]) != packReply(results[0]) || !results[i].Expired() {
			t.Errorf("prober %d got %+v, want the owner's expiry %+v", i, results[i], results[0])
		}
	}
	if hits != n-1 {
		t.Errorf("%d memo hits, want %d", hits, n-1)
	}
}

// TestMemoFailedExchangeNotMemoized: an owner whose exchange fails withdraws
// its claim, so the next asker puts the probe on the wire itself.
func TestMemoFailedExchangeNotMemoized(t *testing.T) {
	prs, trs := memoProbers(t, 2, Options{})
	spent := NewSharedBudget(1)
	spent.TrySpend(1)
	prs[0].opts.SharedBudget = spent
	if _, err := prs[0].Probe(addr("10.0.5.2"), 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("owner err = %v, want ErrBudgetExceeded", err)
	}
	r, err := prs[1].Probe(addr("10.0.5.2"), 3)
	if err != nil || !r.Expired() {
		t.Fatalf("asker: %+v, %v", r, err)
	}
	if st := prs[1].Stats(); st.MemoHits != 0 || trs[1].sent != 1 {
		t.Errorf("asker stats %+v over %d wire packets, want its own exchange", st, trs[1].sent)
	}
}

// TestProbeUnsharedBypassesMemo: an unshared probe neither reads nor fills
// the memo.
func TestProbeUnsharedBypassesMemo(t *testing.T) {
	prs, trs := memoProbers(t, 2, Options{Cache: true})
	if _, err := prs[0].ProbeUnshared(addr("10.0.5.2"), 1); err != nil {
		t.Fatal(err)
	}
	if j := prs[0].opts.Memo.Journal(); len(j.Keys) != 0 {
		t.Fatalf("an unshared probe filled the memo: %+v", j)
	}
	if _, err := prs[1].Probe(addr("10.0.5.2"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := prs[0].ProbeUnshared(addr("10.0.5.2"), 1); err != nil {
		t.Fatal(err)
	}
	if trs[1].sent != 1 || prs[1].Stats().MemoHits != 0 {
		t.Errorf("shared probe after an unshared one: %d packets, %+v", trs[1].sent, prs[1].Stats())
	}
	if st := prs[0].Stats(); st.MemoHits != 0 || st.Cached != 1 {
		t.Errorf("unshared repeat: %+v, want a response-cache hit and no memo hit", st)
	}
}

// TestMemoKeepsRecordRouteStamps: a RecordRoute prober does not use the
// memo, so no reply loses its stamps to a hit.
func TestMemoKeepsRecordRouteStamps(t *testing.T) {
	prs, _ := memoProbers(t, 2, Options{RecordRoute: true})
	for i, pr := range prs {
		res, err := pr.Direct(addr("10.0.5.2"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recorded) != 3 || pr.Stats().MemoHits != 0 {
			t.Errorf("prober %d: stamps %v, stats %+v; want 3 stamps and no memo hit", i, res.Recorded, pr.Stats())
		}
	}
}

// TestMemoJournalSeed: a journal seeds a fresh memo that answers exactly as
// the one it was taken from, and Validate refuses malformed journals.
func TestMemoJournalSeed(t *testing.T) {
	prs, _ := memoProbers(t, 1, Options{})
	for _, ttl := range []int{3, 1, DirectTTL} {
		if _, err := prs[0].Probe(addr("10.0.5.2"), ttl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prs[0].Direct(addr("10.0.2.200")); err != nil {
		t.Fatal(err)
	}
	j := prs[0].opts.Memo.Journal()
	if len(j.Keys) != 4 {
		t.Fatalf("journal of %d keys, want 4", len(j.Keys))
	}

	seeded, trs := memoProbers(t, 1, Options{})
	if err := seeded[0].opts.Memo.Seed(j); err != nil {
		t.Fatal(err)
	}
	for _, ttl := range []int{1, 3, DirectTTL} {
		if _, err := seeded[0].Probe(addr("10.0.5.2"), ttl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := seeded[0].Direct(addr("10.0.2.200")); err != nil {
		t.Fatal(err)
	}
	if got, want := withoutMemo(seeded[0].Stats()), withoutMemo(prs[0].Stats()); got != want || trs[0].sent != 0 {
		t.Errorf("seeded memo: stats %+v over %d wire packets, want %+v and none", got, trs[0].sent, want)
	}

	bad := map[string]MemoJournal{
		"ragged":         {Keys: []uint64{0x0a00050201}, Replies: []uint64{}, Costs: []uint64{1}},
		"unsorted":       {Keys: []uint64{0x0a00050202, 0x0a00050201}, Replies: []uint64{0, 0}, Costs: []uint64{1, 1}},
		"repeated":       {Keys: []uint64{0x0a00050201, 0x0a00050201}, Replies: []uint64{0, 0}, Costs: []uint64{1, 1}},
		"ttl 0":          {Keys: []uint64{0x0a00050200}, Replies: []uint64{0}, Costs: []uint64{1}},
		"wide key":       {Keys: []uint64{1 << 40}, Replies: []uint64{0}, Costs: []uint64{1}},
		"unknown kind":   {Keys: []uint64{0x0a00050201}, Replies: []uint64{6}, Costs: []uint64{1}},
		"silent source":  {Keys: []uint64{0x0a00050201}, Replies: []uint64{1 << 32}, Costs: []uint64{1}},
		"no packets":     {Keys: []uint64{0x0a00050201}, Replies: []uint64{0}, Costs: []uint64{0}},
		"corrupt > sent": {Keys: []uint64{0x0a00050201}, Replies: []uint64{0}, Costs: []uint64{2<<16 | 1}},
	}
	for name, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("%s: journal accepted", name)
		}
		if err := NewMemo().Seed(&j); err == nil {
			t.Errorf("%s: seeded", name)
		}
	}
}
