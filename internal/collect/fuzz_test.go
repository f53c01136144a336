package collect_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/daemon"
)

// FuzzReadCheckpoint: ReadCheckpoint never panics; a checkpoint it accepts
// re-encodes to bytes that read back and encode again identically; and a
// figure3 campaign resumed from it returns a report (which renders and
// checkpoints) or an error, never a panic.
func FuzzReadCheckpoint(f *testing.F) {
	encode := func(cp *collect.Checkpoint) []byte {
		var buf bytes.Buffer
		if err := collect.WriteCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	run := func(cfg collect.Config) []byte {
		rep, err := collect.Run(context.Background(), cfg)
		if err != nil {
			f.Fatal(err)
		}
		return encode(rep.Checkpoint())
	}
	f.Add(run(figure3Campaign("10.0.5.2", "10.0.3.1")))
	c, err := (&daemon.Spec{Topology: "random", Seed: 1}).Resolve("")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(run(c.Config))
	f.Add(encode(cutCheckpoint(f, figure3Campaign("10.0.5.2", "10.0.3.1"), 1)))
	f.Add([]byte("{not json"))
	for _, old := range retiredCheckpoints {
		f.Add([]byte(old))
	}
	for _, cp := range badCheckpoints() {
		f.Add(encode(cp))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := collect.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := collect.WriteCheckpoint(&once, cp); err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		back, err := collect.ReadCheckpoint(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not read back: %v\n%s", err, once.Bytes())
		}
		if err := collect.WriteCheckpoint(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("checkpoint encoding is not stable:\n%s%s", once.Bytes(), twice.Bytes())
		}

		cfg := figure3Campaign("10.0.5.2", "10.0.3.1")
		cfg.Resume = cp
		rep, err := collect.Run(context.Background(), cfg)
		if err != nil {
			return
		}
		if _, err := rep.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := collect.WriteCheckpoint(io.Discard, rep.Checkpoint()); err != nil {
			t.Fatal(err)
		}
	})
}
