package daemon

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"tracenet/internal/collect"
)

// FuzzReadSpec throws arbitrary bytes at the spec decoder that reads every
// POST /api/v1/campaigns body and the spec in every spool record. For any input: decoding
// never panics, Validate never panics on a spec that decodes, and WriteSpec
// either refuses the spec with ErrSpecTooLarge (Submit then refuses it too)
// or writes a fixed point — it reads back, and writing it again yields the
// same bytes. Bytes are compared, not structs: `"targets": []` and an absent
// key decode differently but encode the same.
func FuzzReadSpec(f *testing.F) {
	// The bodies TestAPIErrors posts, except its two of a megabyte or more
	// (the size bound, and a canonical form over it), which it covers: the
	// fuzzer mutates and minimizes every seed, and a megabyte seed stalls a
	// 5 s smoke run.
	f.Add([]byte(`{"tenant": ""}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"tenant":"a","topology":"figure3"} {"tenant":"evil"} garbage`))
	f.Add([]byte(`{"tenant":"a","greedy":true}`))
	f.Add([]byte(`{"tenant": "alice", "topology": "figure3"}`))
	// The record specs TestReplayRejectsCorruptSpool plants.
	f.Add([]byte(`{"tenant": "alice", "proto": "xyz"}`))
	f.Add([]byte(`{"tenant": "alice", "topology": "/etc/passwd"}`))
	f.Add([]byte(`{"tenant": "alice", "bogus_knob": 1}`))
	f.Add([]byte(`{"tenant": "alice", "topology": "figure3"}` + "\n" + `{"tenant": "evil"}`))
	f.Add([]byte(`{"tenant": "ali`))
	// Every field set.
	f.Add([]byte(`{"tenant": "alice", "name": "nightly", "topology": "internet2", "seed": 7,
		"vantage": "vantage", "proto": "udp", "targets": ["10.0.5.2", "10.0.3.1"],
		"max_ttl": 24, "parallel": 4, "budget": 5000, "priority": 2, "defend": true,
		"chaos": 3, "backoff": true, "breaker": true, "disable_cache": true, "eval": true,
		"rescan_interval": 100, "max_rescans": 2}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = sp.Validate()
		var first bytes.Buffer
		if err := WriteSpec(&first, sp); errors.Is(err, ErrSpecTooLarge) {
			return
		} else if err != nil {
			t.Fatalf("encode: %v", err)
		}
		again, err := ReadSpec(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v\nencoded: %s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteSpec(&second, again); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteSpec is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzStart replays arbitrary one-campaign spools: each input is written as
// c0001's record, beside c0001's checkpoint when that input is not empty,
// and the daemon is started over them and drained. Start either refuses
// the spool with ErrCorruptSpool naming one of the two files, or accepts it
// with every replayed campaign in one of the six lifecycle states, which
// still holds once the drain has landed whatever ran. It never panics.
func FuzzStart(f *testing.F) {
	for _, tc := range corruptSpools {
		f.Add([]byte(tc.record), []byte(tc.checkpoint))
	}
	// Spools Start accepts: each lifecycle state, alone and beside a
	// checkpoint of the campaign the record names.
	c, err := (&Spec{Tenant: "alice", Topology: "figure3"}).Resolve("c0001")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := collect.Run(context.Background(), c.Config)
	if err != nil {
		f.Fatal(err)
	}
	var checkpoint bytes.Buffer
	if err := collect.WriteCheckpoint(&checkpoint, rep.Checkpoint()); err != nil {
		f.Fatal(err)
	}
	for _, status := range lifecycle {
		f.Add([]byte(spoolRecord(status, goodSpec)), []byte(nil))
		f.Add([]byte(spoolRecord(status, goodSpec)), checkpoint.Bytes())
	}

	f.Fuzz(func(t *testing.T, record, checkpoint []byte) {
		dir := t.TempDir()
		writeSpool(t, dir, record, checkpoint)
		d, err := New(Config{Spool: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			if !errors.Is(err, ErrCorruptSpool) ||
				!strings.Contains(err.Error(), "c0001.state.json") && !strings.Contains(err.Error(), "c0001.checkpoint.json") {
				t.Fatalf("Start = %v, want ErrCorruptSpool naming the record or the checkpoint", err)
			}
			return
		}
		known := func(when string) {
			for _, doc := range d.List() {
				if !slices.Contains(lifecycle, doc.Status) {
					t.Fatalf("%s, campaign %s is %q", when, doc.ID, doc.Status)
				}
			}
		}
		known("after Start")
		if err := d.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		known("after Drain")
	})
}

// lifecycle lists the six campaign lifecycle states.
var lifecycle = []string{stateQueued, stateRunning, stateDone, stateFailed, stateCancelled, stateInterrupted}
