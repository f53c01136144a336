package core_test

import (
	"encoding/json"
	"strings"
	"testing"

	"tracenet/internal/core"
)

// TestRestoreConfidenceNormalization pins the Restore contract on the
// confidence annotation: the field is omitempty, so legacy checkpoints (and
// zero-valued blobs) decode as 0 — Restore must normalize that to 1 rather
// than hand back a subnet violating the documented (0,1] range, while real
// degraded confidences survive intact and out-of-range values are rejected
// as corruption.
func TestRestoreConfidenceNormalization(t *testing.T) {
	base := core.CheckpointSubnet{
		Prefix:    "10.0.0.0/31",
		Addrs:     []string{"10.0.0.0", "10.0.0.1"},
		Pivot:     "10.0.0.1",
		PivotDist: 2,
	}

	t.Run("absent defaults to one", func(t *testing.T) {
		sub, err := base.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if sub.Confidence != 1 {
			t.Fatalf("restored confidence %v, want 1 (absent field means fully answered)", sub.Confidence)
		}
	})

	t.Run("degraded annotation survives", func(t *testing.T) {
		cs := base
		cs.Confidence = 0.42
		cs.Degraded = true
		sub, err := cs.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if sub.Confidence != 0.42 || !sub.Degraded {
			t.Fatalf("restored confidence=%v degraded=%v, want 0.42 true", sub.Confidence, sub.Degraded)
		}
	})

	t.Run("out of range rejected", func(t *testing.T) {
		for _, bad := range []float64{-0.1, 1.5} {
			cs := base
			cs.Confidence = bad
			if _, err := cs.Restore(); err == nil {
				t.Errorf("confidence %v restored without error", bad)
			} else if !strings.Contains(err.Error(), "outside (0,1]") {
				t.Errorf("confidence %v: unexpected error %v", bad, err)
			}
		}
	})
}

// TestRestoreLegacyCheckpointConfidence restores subnets as a checkpoint
// written before confidence tracking existed serializes them (no confidence
// keys at all): every restored subnet must satisfy the (0,1] contract so
// downstream consumers (reports, eval weighting) never see a
// zero-confidence subnet, while a journaled degraded confidence survives.
// The campaign-level resume of such a checkpoint is pinned in
// internal/collect.
func TestRestoreLegacyCheckpointConfidence(t *testing.T) {
	var legacy []core.CheckpointSubnet
	if err := json.Unmarshal([]byte(`[
    {"prefix": "10.0.1.0/30", "addrs": ["10.0.1.1", "10.0.1.2"], "pivot": "10.0.1.2", "pivot_dist": 1},
    {"prefix": "10.0.2.0/31", "addrs": ["10.0.2.0", "10.0.2.1"], "pivot": "10.0.2.0", "pivot_dist": 2, "confidence": 0.75, "degraded": true}
  ]`), &legacy); err != nil {
		t.Fatal(err)
	}
	var subs []*core.Subnet
	for _, cs := range legacy {
		sub, err := cs.Restore()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	for _, sub := range subs {
		if sub.Confidence <= 0 || sub.Confidence > 1 {
			t.Errorf("subnet %v restored with confidence %v outside (0,1]", sub.Prefix, sub.Confidence)
		}
	}
	if subs[0].Confidence != 1 || subs[0].Degraded {
		t.Errorf("legacy subnet restored as confidence=%v degraded=%v, want 1 false",
			subs[0].Confidence, subs[0].Degraded)
	}
	if subs[1].Confidence != 0.75 || !subs[1].Degraded {
		t.Errorf("degraded subnet restored as confidence=%v degraded=%v, want 0.75 true",
			subs[1].Confidence, subs[1].Degraded)
	}
}
