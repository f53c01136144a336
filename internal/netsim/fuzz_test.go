package netsim

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// faultPlanSeeds are FuzzReadFaultPlan's seeds that decode and install on
// fuzzTopology: between them they arm every kind, one seed per byzantine
// kind so the corpus always exercises the adversarial decode paths.
var faultPlanSeeds = []string{
	`{}`,
	`{"seed": 1, "faults": []}`,
	`{"seed": 3, "faults": [{"kind": "corrupt", "prob": 0.4}]}`,
	`{"seed": 5, "faults": [
		{"kind": "link-flap", "subnet": "10.0.1.0/30", "from": 5, "until": 50},
		{"kind": "blackhole", "router": "R2"},
		{"kind": "rate-storm", "rate": 0.5, "burst": 2},
		{"kind": "churn", "from": 1}
	]}`,
	`{"seed": 7, "faults": [{"kind": "liar", "prob": 0.35}]}`,
	`{"seed": 7, "faults": [{"kind": "alias-confuse", "addr": "10.0.3.0"}]}`,
	`{"seed": 7, "faults": [{"kind": "hidden-hop", "router": "R2"}]}`,
	`{"seed": 7, "faults": [{"kind": "echo", "prob": 0.5}]}`,
}

// unknownKindSeeds name kinds ReadFaultPlan refuses.
var unknownKindSeeds = []string{
	`{"seed": 9, "faults": [{"kind": "gremlin"}]}`,
	`{"seed": 9, "faults": [{"kind": 42}]}`,
}

// TestFaultPlanSeedsInstall checks that every fuzz seed but the unknown
// kinds decodes and installs on fuzzTopology, so the corpus starts from
// plans that reach the install path.
func TestFaultPlanSeedsInstall(t *testing.T) {
	topo := fuzzTopology()
	for _, seed := range faultPlanSeeds {
		plan, err := ReadFaultPlan(strings.NewReader(seed))
		if err != nil {
			t.Errorf("seed %s: %v", seed, err)
			continue
		}
		if err := New(topo, Config{Seed: 1}).InstallFaults(plan); err != nil {
			t.Errorf("seed %s: install: %v", seed, err)
		}
	}
	for _, seed := range unknownKindSeeds {
		if _, err := ReadFaultPlan(strings.NewReader(seed)); err == nil {
			t.Errorf("seed %s decoded", seed)
		}
	}
}

// FuzzReadFaultPlan throws arbitrary bytes at the fault-plan decoder. The
// invariants for ANY input: a decode error never panics; unknown kinds fail
// with the named ErrUnknownFaultKind (never a silent zero-value fault); and
// every plan that decodes successfully is valid, survives a
// marshal/re-read round trip unchanged, and installs onto a topology
// without panicking (scope errors are fine — they name a missing router or
// subnet, they do not corrupt the network).
func FuzzReadFaultPlan(f *testing.F) {
	for _, seed := range append(faultPlanSeeds, unknownKindSeeds...) {
		f.Add([]byte(seed))
	}

	topo := fuzzTopology()
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadFaultPlan(bytes.NewReader(data))
		if err != nil {
			if strings.Contains(string(data), `"kind"`) && errors.Is(err, ErrUnknownFaultKind) {
				return // the named rejection path, working as specified
			}
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("decoded plan fails validation: %v\ninput: %s", err, data)
		}
		var buf bytes.Buffer
		if err := WriteFaultPlan(&buf, plan); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadFaultPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v\nencoded: %s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("round trip changed the plan:\nbefore: %+v\nafter:  %+v", plan, again)
		}
		// Install must never panic; unknown scopes return errors.
		n := New(topo, Config{Seed: 1})
		_ = n.InstallFaults(plan)
	})
}

// fuzzTopology builds a tiny two-router topology for install probing.
func fuzzTopology() *Topology {
	b := NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")
	s1 := b.Subnet("10.0.0.0/30")
	s2 := b.Subnet("10.0.1.0/30")
	b.Attach(v, s1, "10.0.0.1")
	b.Attach(r1, s1, "10.0.0.2")
	b.Attach(r1, s2, "10.0.1.1")
	b.Attach(r2, s2, "10.0.1.2")
	return b.MustBuild()
}
