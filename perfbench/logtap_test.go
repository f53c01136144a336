package main

import (
	"testing"
)

func TestParseLogRecord(t *testing.T) {
	for _, tc := range []struct {
		line string
		want logRecord
		ok   bool
	}{
		{`{"tick":412,"level":"info","msg":"campaign finished","campaign":"c0007","status":"done"}`,
			logRecord{Msg: "campaign finished", Campaign: "c0007", Status: "done"}, true},
		{`{"tick":0,"level":"info","msg":"campaign started","campaign":"c0001","tenant":"bench","targets":"24"}`,
			logRecord{Msg: "campaign started", Campaign: "c0001"}, true},
		{`{"tick":3,"level":"info","msg":"say \"hi\"","campaign":"c\\1"}`,
			logRecord{Msg: `say "hi"`, Campaign: `c\1`}, true},
		{`{"tick":3,"level":"info"}`, logRecord{}, false},  // no message
		{`{"msg":"campaign finished"`, logRecord{}, false}, // truncated
		{`not json`, logRecord{}, false},
		{``, logRecord{}, false},
	} {
		got, ok := parseLogRecord([]byte(tc.line))
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseLogRecord(%s) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

// TestLogTapWakesWaiters feeds records the way obs.Logger writes them (line
// and newline in separate writes, lines split anywhere) and checks that the
// waiter sees the finished record, whichever side registered first.
func TestLogTapWakesWaiters(t *testing.T) {
	l := newLogTap()
	early := l.events("c0002") // the client got its ID before the log line

	for _, chunk := range []string{
		`{"tick":1,"level":"info","msg":"campaign accepted","campaign":"c0001"}`, "\n",
		`{"tick":1,"level":"info","msg":"campaign started","campaign":"c0001"}`, "\n",
		`{"tick":9,"level":"info","msg":"campaign fin`, `ished","campaign":"c0001","status":"done"}`, "\n",
		`{"tick":9,"level":"info","msg":"campaign started","campaign":"c0002"}` + "\n" +
			`{"tick":12,"level":"info","msg":"campaign finished","campaign":"c0002","status":"failed"}` + "\n",
		`{"tick":12,"level":"info","msg":"campaign finished","campaign":"c0002","status":"done"}` + "\n",
	} {
		if n, err := l.Write([]byte(chunk)); n != len(chunk) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}

	late := l.events("c0001") // the log line arrived before the client asked
	for id, ev := range map[string]*campaignEvents{"c0001": late, "c0002": early} {
		select {
		case <-ev.done:
		default:
			t.Fatalf("%s: finished record did not wake the waiter", id)
		}
	}
	started, finished, status := l.result("c0001")
	if status != "done" || started.IsZero() || finished.Before(started) {
		t.Errorf("c0001: started %v finished %v status %q", started, finished, status)
	}
	// A repeated finished record must not close the channel twice or
	// overwrite the first outcome.
	if _, _, status := l.result("c0002"); status != "failed" {
		t.Errorf("c0002 status = %q, want the first record's", status)
	}
	if len(l.campaigns) != 0 {
		t.Errorf("result left %d campaigns behind", len(l.campaigns))
	}
}

func TestNormaliseReport(t *testing.T) {
	a := []byte("campaign c0012 tenant bench: 24 targets (done 23, skipped 0, failed 1, other 0)\n  10.0.0.1 done\n")
	b := []byte("campaign c0480 tenant bench: 24 targets (done 23, skipped 0, failed 1, other 0)\n  10.0.0.1 done\n")
	na, targets, done, err := normaliseReport(a)
	if err != nil || targets != 24 || done != 23 {
		t.Fatalf("normaliseReport = %d, %d, %v", targets, done, err)
	}
	nb, _, _, err := normaliseReport(b)
	if err != nil || string(na) != string(nb) {
		t.Errorf("reports differing only in ID normalise differently:\n%s\n%s", na, nb)
	}
	if _, _, _, err := normaliseReport([]byte("artifact not available\n")); err == nil {
		t.Error("a non-report body normalised without error")
	}
}
