package probe

import "tracenet/internal/telemetry"

// LoggingTransport wraps a Transport and hands every exchange, classified as
// a ProbeEvent, to Sink — the probe-level debugging view the paper's
// conclusion suggests tracenet for ("network analysis/debugging"). The event
// carries the reply's remaining TTL and classifies failures (timeout vs
// transport vs decode) instead of echoing a raw error string.
type LoggingTransport struct {
	Inner Transport
	// Clock, when set, stamps every event with the virtual tick at which the
	// exchange completed, aligning the log with trace and flight-recorder
	// timestamps.
	Clock telemetry.Clock
	// Sink receives each event (required) — the hook the structured logging
	// layer (internal/obs) uses to turn exchanges into leveled JSON records
	// without this package depending on it.
	Sink func(ProbeEvent)
}

// Exchange forwards to the inner transport, logging the classified exchange.
func (l LoggingTransport) Exchange(raw []byte) ([]byte, error) {
	reply, err := l.Inner.Exchange(raw)
	var ticks uint64
	if l.Clock != nil {
		ticks = l.Clock.Ticks()
	}
	l.Sink(exchangeEvent(ticks, raw, reply, err))
	return reply, err
}
