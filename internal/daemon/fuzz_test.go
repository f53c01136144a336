package daemon

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadSpec throws arbitrary bytes at the spec decoder that reads every
// POST /api/v1/campaigns body and every spool spec. For any input: decoding
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
	// The spool specs TestReplayRejectsCorruptSpool plants.
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
