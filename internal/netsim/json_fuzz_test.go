package netsim_test

import (
	"bytes"
	"testing"

	"tracenet/internal/netsim"
	"tracenet/internal/topo"
)

// FuzzReadJSON throws arbitrary bytes at the topology reader, whose input
// is a file handed to tracenet, subnetmap or topogen. For ANY input: no
// panic; reading the same bytes twice gives the same error text or the same
// topology; and an accepted topology survives WriteJSON → ReadJSON →
// WriteJSON byte for byte.
func FuzzReadJSON(f *testing.F) {
	for _, tp := range []*netsim.Topology{topo.Figure3(), topo.Figure2(), topo.Chain(8)} {
		var buf bytes.Buffer
		if err := tp.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(netsim.OverlapJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err1 := reencode(data)
		second, err2 := reencode(data)
		if err1 != nil || err2 != nil {
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("two reads disagree: %v / %v\ninput: %s", err1, err2, data)
			}
			return
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("two reads built different topologies:\n%s\n%s", first, second)
		}
		again, err := reencode(first)
		if err != nil {
			t.Fatalf("re-read of an accepted topology: %v\nencoded: %s", err, first)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("round trip changed the topology:\nbefore: %s\nafter:  %s", first, again)
		}
	})
}

// reencode parses data as a topology and returns its WriteJSON encoding.
func reencode(data []byte) ([]byte, error) {
	tp, err := netsim.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tp.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
