package main

import (
	"encoding/binary"
	"time"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
)

// tap is the transport the benchmark hands one prober: it forwards every
// exchange to a netsim port and counts what crossed it. One tap serves one
// target's session, so its fields need no locking.
//
// The first probe a session sends is its trace-collection probe toward the
// destination, so the tap learns which target it serves from that packet and
// hands itself to first; the survey pairs taps with finished targets that
// way. With timed set, the tap also measures the time spent inside netsim;
// with burn set, it spins for that long before each exchange (the
// sensitivity check's synthetic slowdown).
type tap struct {
	port  *netsim.Port
	timed bool
	burn  time.Duration
	start time.Time // when the session's prober was dialled
	first func(t *tap, dst ipv4.Addr)

	seen      bool
	exchanges uint64
	replies   uint64
	inside    time.Duration
}

func (t *tap) Exchange(raw []byte) ([]byte, error) { return t.ExchangeAppend(raw, nil) }

// ExchangeAppend keeps the prober on netsim's zero-allocation reply path.
func (t *tap) ExchangeAppend(raw, dst []byte) ([]byte, error) {
	if !t.seen && len(raw) >= 20 {
		t.seen = true
		if t.first != nil {
			t.first(t, ipv4.Addr(binary.BigEndian.Uint32(raw[16:20])))
		}
	}
	if t.burn > 0 {
		spin(t.burn)
	}
	t.exchanges++
	var out []byte
	var err error
	if t.timed {
		s := time.Now()
		out, err = t.port.ExchangeAppend(raw, dst)
		t.inside += time.Since(s)
	} else {
		out, err = t.port.ExchangeAppend(raw, dst)
	}
	if out != nil {
		t.replies++
	}
	return out, err
}

// Wait forwards retry back-off so the simulator's virtual clock advances as
// it would on the bare port.
func (t *tap) Wait(ticks uint64) { t.port.Wait(ticks) }

// spin burns d of CPU time on the calling goroutine.
func spin(d time.Duration) {
	for s := time.Now(); time.Since(s) < d; {
	}
}

// exchangeTotals accumulates tap counters over many sessions.
type exchangeTotals struct {
	exchanges uint64
	replies   uint64
	inside    time.Duration // time inside netsim exchanges
	session   time.Duration // time inside the sessions that made them
	sessions  int
}

func (e *exchangeTotals) add(t *tap, session time.Duration) {
	e.exchanges += t.exchanges
	e.replies += t.replies
	e.inside += t.inside
	e.session += session
	e.sessions++
}

// layerMetrics fills the netsim and core per-layer metrics from the totals.
func (e *exchangeTotals) layerMetrics(m map[string]float64) {
	m["netsim.exchange_ns"] = ratio(float64(e.inside), float64(e.exchanges))
	m["netsim.busy_share"] = busyShare(int64(e.inside), int64(e.session))
	m["netsim.exchanges_per_target"] = ratio(float64(e.exchanges), float64(e.sessions))
	m["netsim.reply_ratio"] = replyRatio(e.replies, e.exchanges)
	m["core.trace_ms"] = ratio(float64(e.session), float64(e.sessions)) / 1e6
	m["core.self_us_per_target"] = ratio(float64(e.session-e.inside), float64(e.sessions)) / 1e3
}
