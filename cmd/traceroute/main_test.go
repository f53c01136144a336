package main

import (
	"strings"
	"testing"
)

func TestRunPlainTrace(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "figure3", "", "icmp", 30, false, false, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trace to 10.0.5.2", "reached=true", "10.0.1.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunRecordRoute(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "figure3", "", "icmp", 30, false, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"discarte trace", "out 10.0.1.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "figure3", "", "nope", 30, false, false, 1, nil); err == nil {
		t.Error("bad protocol accepted")
	}
	if err := run(&b, "figure3", "", "icmp", 30, false, false, 1, []string{"zz"}); err == nil {
		t.Error("bad destination accepted")
	}
	for maxTTL, want := range map[int]string{0: "-maxttl must be at least 1", -5: "max_ttl must be non-negative"} {
		for _, rr := range []bool{false, true} {
			if err := run(&b, "figure3", "", "icmp", maxTTL, false, rr, 1, nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-maxttl %d (rr %v): err = %v, want one naming %q", maxTTL, rr, err, want)
			}
		}
	}
}
