package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"
)

// logRecord is the part of a tracenetd structured log line the benchmark
// reads: one JSON object per line, as obs.Logger writes it.
type logRecord struct {
	Msg      string `json:"msg"`
	Campaign string `json:"campaign"`
	Status   string `json:"status"`
}

// parseLogRecord decodes one log line. It reports false for lines that are
// not a JSON object carrying a message.
func parseLogRecord(line []byte) (logRecord, bool) {
	var r logRecord
	if err := json.Unmarshal(line, &r); err != nil || r.Msg == "" {
		return logRecord{}, false
	}
	return r, true
}

// campaignEvents is what the log said about one campaign.
type campaignEvents struct {
	started  time.Time
	finished time.Time
	status   string
	done     chan struct{} // closed when the finished record arrives
}

// logTap is the io.Writer the benchmark gives the daemon's logger. It stamps
// each campaign's "campaign started" and "campaign finished" records with the
// wall-clock time they arrived and wakes whoever waits on the campaign, so
// clients learn of completion without polling.
type logTap struct {
	mu        sync.Mutex
	buf       []byte
	campaigns map[string]*campaignEvents
}

func newLogTap() *logTap {
	return &logTap{campaigns: make(map[string]*campaignEvents)}
}

// Write consumes whole lines; a partial line waits for the rest.
func (l *logTap) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		l.handle(l.buf[:i], now)
		l.buf = l.buf[i+1:]
	}
	if len(l.buf) == 0 {
		l.buf = nil
	}
	return len(p), nil
}

// handle records one complete line. Caller holds l.mu.
func (l *logTap) handle(line []byte, now time.Time) {
	if !bytes.Contains(line, []byte(`"campaign started"`)) && !bytes.Contains(line, []byte(`"campaign finished"`)) {
		return
	}
	r, ok := parseLogRecord(line)
	if !ok || r.Campaign == "" {
		return
	}
	ev := l.eventsLocked(r.Campaign)
	switch r.Msg {
	case "campaign started":
		ev.started = now
	case "campaign finished":
		if ev.finished.IsZero() {
			ev.finished = now
			ev.status = r.Status
			close(ev.done)
		}
	}
}

// events returns the record for a campaign, creating it if the log has not
// mentioned the campaign yet.
func (l *logTap) events(id string) *campaignEvents {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eventsLocked(id)
}

func (l *logTap) eventsLocked(id string) *campaignEvents {
	ev := l.campaigns[id]
	if ev == nil {
		ev = &campaignEvents{done: make(chan struct{})}
		l.campaigns[id] = ev
	}
	return ev
}

// result returns a finished campaign's times and status and forgets it.
// Call only after ev.done is closed.
func (l *logTap) result(id string) (started, finished time.Time, status string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.campaigns[id]
	delete(l.campaigns, id)
	return ev.started, ev.finished, ev.status
}
