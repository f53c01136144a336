package daemon

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tracenet/internal/probe"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"minimal", Spec{Tenant: "alice"}, ""},
		{"full", Spec{Tenant: "a-b_c.9", Topology: "random", Seed: 7, Proto: "udp",
			Targets: []string{"10.0.5.2"}, Parallel: 4, Budget: 100,
			RescanInterval: 50, MaxRescans: 3}, ""},
		{"no tenant", Spec{}, "tenant is required"},
		{"bad tenant", Spec{Tenant: "a b"}, "tenant"},
		{"file topology", Spec{Tenant: "a", Topology: "/etc/passwd"}, "not a built-in"},
		{"bad proto", Spec{Tenant: "a", Proto: "gre"}, "protocol"},
		{"bad target", Spec{Tenant: "a", Targets: []string{"nope"}}, "target"},
		{"dup target", Spec{Tenant: "a", Targets: []string{"10.0.0.1", "10.0.0.1"}}, "duplicate"},
		{"rescan without interval", Spec{Tenant: "a", MaxRescans: 1}, "rescan_interval"},
		{"negative parallel", Spec{Tenant: "a", Parallel: -1}, "non-negative"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecRoundTrip: the canonical encoding reads back identical, and
// unknown fields are rejected rather than ignored.
func TestSpecRoundTrip(t *testing.T) {
	sp := &Spec{Tenant: "alice", Topology: "random", Seed: 42,
		Targets: []string{"10.0.5.2"}, Parallel: 2, Budget: 500, Defend: true}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Fatalf("round trip = %+v, want %+v", got, sp)
	}

	if _, err := ReadSpec(strings.NewReader(`{"tenant": "a", "bogus_knob": true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestSpecResolve: the shared resolver applies the Spec defaults, maps every
// campaign knob onto the collect config, and refuses what it cannot run —
// including an unknown protocol that skipped Validate.
func TestSpecResolve(t *testing.T) {
	c, err := (&Spec{Tenant: "alice"}).Resolve("c0001")
	if err != nil {
		t.Fatal(err)
	}
	if c.Scenario.Description == "" || c.Port.Host().Name != "vantage" || c.Config.ID != "c0001" ||
		len(c.Config.Targets) != 1 || c.Config.Session.MaxTTL != 30 || c.Config.Probe.Protocol != probe.ICMP ||
		c.Config.Probe.Retry != nil || c.Config.Probe.Breaker != nil {
		t.Fatalf("defaults resolved to %+v", c)
	}

	c, err = (&Spec{Tenant: "alice", Topology: "chain", Proto: "tcp", MaxTTL: 12, Parallel: 3,
		Budget: 99, Defend: true, Chaos: 5, Backoff: true, Breaker: true,
		DisableCache: true, Targets: []string{"10.9.255.2"}}).Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config
	if cfg.Probe.Protocol != probe.TCP || cfg.Session.MaxTTL != 12 || !cfg.Session.Defend ||
		cfg.Parallel != 3 || cfg.Budget != 99 || !cfg.DisableCache ||
		cfg.Probe.Retry == nil || cfg.Probe.Breaker == nil || !cfg.Probe.Cache ||
		len(cfg.Targets) != 1 || cfg.Targets[0].String() != "10.9.255.2" {
		t.Fatalf("knobs resolved to %+v", cfg)
	}
	if _, err := cfg.Dial(cfg.Probe); err != nil {
		t.Fatalf("resolved Dial: %v", err)
	}

	for name, sp := range map[string]*Spec{
		"unknown protocol": {Tenant: "a", Proto: "xyz"},
		"unknown topology": {Tenant: "a", Topology: "no-such-topology"},
		"unknown vantage":  {Tenant: "a", Vantage: "nobody"},
		"bad target":       {Tenant: "a", Targets: []string{"nope"}},
	} {
		if _, err := sp.Resolve(""); err == nil {
			t.Errorf("%s: resolved", name)
		}
	}
}
