// Package telemetry is tracenet's deterministic observability layer: an
// atomic metrics registry with Prometheus-text and JSON exposition, a
// hierarchical span tracer emitting Chrome trace-event JSON, and a bounded
// flight recorder of recent probe events that is dumped automatically when a
// run degrades.
//
// Everything is built on the standard library, and — deliberately — nothing
// in this package reads the wall clock or the global random stream.
// Timestamps come from an injected Clock, which in the simulated substrate is
// netsim's virtual clock, so two same-seed runs produce byte-identical
// metrics, traces, and flight-recorder dumps. That keeps the determinism
// analyzer (tracenetlint) satisfied and makes telemetry itself testable with
// golden files: the observability of a run is as replayable as the run.
//
// All entry points are nil-safe: a nil *Telemetry, nil *Counter, nil *Span,
// and so on are inert no-ops, so instrumented code pays only a nil check when
// telemetry is disabled. Likewise a site builds a sink's arguments only when
// that sink is attached (HasTracer, HasRecorder), so a registry-only
// Telemetry pays for its metrics and nothing else.
package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// Clock supplies timestamps in virtual ticks. netsim.Network implements it
// with its per-injection virtual clock; tests use a ManualClock. A real
// deployment would adapt a monotonic reading, accepting that its traces are
// then no longer bit-reproducible.
type Clock interface {
	Ticks() uint64
}

// ManualClock is an explicitly-advanced Clock for tests and offline tools.
// It is not safe for concurrent use with Advance; concurrent Ticks reads of
// a quiescent clock are fine.
type ManualClock struct {
	now uint64
}

// Ticks returns the current tick count.
func (c *ManualClock) Ticks() uint64 { return c.now }

// Advance moves the clock forward by d ticks.
func (c *ManualClock) Advance(d uint64) { c.now += d }

// Telemetry bundles one run's observability surfaces. Zero or more of the
// Tracer and Recorder may be absent; the Registry is always present on a
// Telemetry built with New. The struct is shared freely across goroutines:
// Registry and Recorder are internally synchronized, and the Tracer
// serializes event emission.
type Telemetry struct {
	Clock    Clock
	Registry *Registry
	Tracer   *Tracer
	Recorder *FlightRecorder

	// cIncidents is the pre-resolved tracenet_incidents_total handle:
	// Incident is reachable from the per-probe path (breaker-open events),
	// so it must not pay a by-name registry lookup per call.
	cIncidents *Counter

	mu        sync.Mutex
	incidentW io.Writer
	incidents uint64
}

// New creates a Telemetry with a fresh Registry over the given clock (which
// may be nil: timestamps then read 0). Attach a Tracer or FlightRecorder by
// assigning the fields before instrumented work starts.
func New(clock Clock) *Telemetry {
	reg := NewRegistry()
	return &Telemetry{
		Clock:      clock,
		Registry:   reg,
		cIncidents: reg.Counter("tracenet_incidents_total"),
	}
}

// WithClock returns a Telemetry over clock that shares t's sinks — its
// registry, tracer, recorder and incident counter — so work running on its
// own clock (a daemon campaign on its network's virtual clock) lands its
// series, events and incidents where t's do. The incident writer and the
// Incidents tally stay with t. Nil on a nil t.
func (t *Telemetry) WithClock(clock Clock) *Telemetry {
	if t == nil {
		return nil
	}
	return &Telemetry{
		Clock:      clock,
		Registry:   t.Registry,
		Tracer:     t.Tracer,
		Recorder:   t.Recorder,
		cIncidents: t.cIncidents,
	}
}

// HasTracer reports whether a tracer is attached. An instrumentation site
// builds span and event arguments only when it is, so a registry-only
// Telemetry costs nothing for the tracer it lacks.
func (t *Telemetry) HasTracer() bool { return t != nil && t.Tracer != nil }

// HasRecorder reports whether a flight recorder is attached. An
// instrumentation site renders recorder lines only when it is.
func (t *Telemetry) HasRecorder() bool { return t != nil && t.Recorder != nil }

// Ticks reads the clock; 0 when the telemetry or its clock is absent.
func (t *Telemetry) Ticks() uint64 {
	if t == nil || t.Clock == nil {
		return 0
	}
	return t.Clock.Ticks()
}

// Counter returns the named registry counter, or a nil (inert) handle when
// telemetry is disabled. Labels are alternating key/value pairs.
func (t *Telemetry) Counter(name string, labels ...string) *Counter {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.Registry.Counter(name, labels...)
}

// Gauge returns the named registry gauge, or a nil handle when disabled.
func (t *Telemetry) Gauge(name string, labels ...string) *Gauge {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.Registry.Gauge(name, labels...)
}

// Histogram returns the named registry histogram, or a nil handle when
// disabled. See Registry.Histogram for the bucket contract.
func (t *Telemetry) Histogram(name string, buckets []uint64, labels ...string) *Histogram {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.Registry.Histogram(name, buckets, labels...)
}

// StartSpan opens a span on the tracer, stamped with the current ticks.
// Returns nil (an inert span) when no tracer is attached.
func (t *Telemetry) StartSpan(name string, args ...string) *Span {
	if t == nil || t.Tracer == nil {
		return nil
	}
	sp := t.Tracer.Start(t.Ticks(), name, args...)
	if sp != nil {
		sp.clock = t.Clock
	}
	return sp
}

// Instant emits an instant event on the tracer, if one is attached.
func (t *Telemetry) Instant(name string, args ...string) {
	if t == nil || t.Tracer == nil {
		return
	}
	t.Tracer.Instant(t.Ticks(), name, args...)
}

// Complete emits a complete ("X") event spanning [start, end] ticks.
func (t *Telemetry) Complete(name string, start, end uint64, args ...string) {
	if t == nil || t.Tracer == nil {
		return
	}
	t.Tracer.Complete(start, end, name, args...)
}

// Record appends an event to the flight recorder, stamped with the current
// ticks. No-op without a recorder.
func (t *Telemetry) Record(kind, msg string) {
	if t == nil || t.Recorder == nil {
		return
	}
	t.Recorder.Record(Event{Ticks: t.Ticks(), Kind: kind, Msg: msg})
}

// RecordBytes appends a flight-recorder event whose message bytes are copied
// into recorder-owned storage, stamped with the current ticks — the zero-alloc
// variant of Record for hot paths rendering into a reused buffer.
func (t *Telemetry) RecordBytes(kind string, msg []byte) {
	if t == nil || t.Recorder == nil {
		return
	}
	t.Recorder.RecordBytes(t.Ticks(), kind, msg)
}

// RecordAt is Record with an explicit timestamp, for callers that hold the
// tick count already (netsim records under its own lock, where re-reading
// the clock through the Telemetry would deadlock).
func (t *Telemetry) RecordAt(ticks uint64, kind, msg string) {
	if t == nil || t.Recorder == nil {
		return
	}
	t.Recorder.Record(Event{Ticks: ticks, Kind: kind, Msg: msg})
}

// SetIncidentWriter arms automatic flight-recorder dumps: every Incident
// writes the recorder's current contents to w.
func (t *Telemetry) SetIncidentWriter(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.incidentW = w
	t.mu.Unlock()
}

// Incident marks a degradation event (a circuit breaker opening, a subnet
// collected under fault evidence): it counts the incident, records it, emits
// an instant trace event, and — when an incident writer is armed — dumps the
// flight recorder so the probe history leading up to the incident survives
// for post-mortem analysis.
func (t *Telemetry) Incident(reason string) {
	if t == nil {
		return
	}
	t.cIncidents.Add(1)
	ticks := t.Ticks()
	t.RecordAt(ticks, "incident", reason)
	t.Instant("incident", "reason", reason)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.incidents++
	if t.incidentW == nil || t.Recorder == nil {
		return
	}
	fmt.Fprintf(t.incidentW, "== flight recorder dump #%d at tick %d: %s\n",
		t.incidents, ticks, reason)
	t.Recorder.WriteTo(t.incidentW)
}

// DumpRecorder writes an on-demand flight-recorder snapshot stamped with the
// current tick — the read-only path behind SIGTERM drains and the HTTP
// /flightz endpoint. Safe without a recorder (a "not armed" line is written)
// and on a nil Telemetry.
func (t *Telemetry) DumpRecorder(w io.Writer, reason string) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "flight recorder: not armed")
		return err
	}
	return t.Recorder.DumpTo(w, t.Ticks(), reason)
}

// Incidents returns how many incidents were raised so far.
func (t *Telemetry) Incidents() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incidents
}
