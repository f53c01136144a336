package collect_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// firstPacket is a transport that remembers the destination and TTL of the
// first packet its prober sends, as a tap that pairs transports with
// targets by that packet would.
type firstPacket struct {
	port *netsim.Port
	sent int
	dst  ipv4.Addr
	ttl  uint8
}

func (f *firstPacket) Exchange(raw []byte) ([]byte, error) {
	if f.sent == 0 && len(raw) >= 20 {
		f.ttl = raw[8]
		f.dst = ipv4.Addr(binary.BigEndian.Uint32(raw[16:20]))
	}
	f.sent++
	return f.port.Exchange(raw)
}

// TestMemoFirstPacketNamesTarget sweeps every address of every subnet of
// three topologies: whatever the probe memo already holds, each prober's
// first packet is the TTL-1 trace probe toward its own target, so every
// traced target puts at least that packet on the wire.
func TestMemoFirstPacketNamesTarget(t *testing.T) {
	for _, name := range []string{"internet2", "geant", "random"} {
		sc, err := cli.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var targets []ipv4.Addr
		for _, s := range sc.Topo.Subnets {
			for a := s.Prefix.Base(); a < s.Prefix.Base()+ipv4.Addr(s.Prefix.Size()); a++ {
				targets = append(targets, a)
			}
		}
		for _, parallel := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", name, parallel), func(t *testing.T) {
				n := netsim.New(sc.Topo, netsim.Config{Seed: 1})
				var mu sync.Mutex
				var taps []*firstPacket
				rep, err := collect.Run(context.Background(), collect.Config{
					Targets:  targets,
					Parallel: parallel,
					Probe:    probe.Options{Cache: true},
					Dial: func(opts probe.Options) (*probe.Prober, error) {
						port, err := n.PortFor(sc.Vantage)
						if err != nil {
							return nil, err
						}
						f := &firstPacket{port: port}
						mu.Lock()
						taps = append(taps, f)
						mu.Unlock()
						return probe.New(f, port.LocalAddr(), opts), nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stats.MemoHits == 0 {
					t.Fatal("the sweep never hit the probe memo")
				}
				named := make(map[ipv4.Addr]int, len(taps))
				for _, f := range taps {
					if f.sent == 0 {
						t.Errorf("a prober sent nothing (first packet %v ttl %d)", f.dst, f.ttl)
						continue
					}
					if f.ttl != 1 {
						t.Errorf("a prober's first packet went to %v at TTL %d, not TTL 1", f.dst, f.ttl)
					}
					named[f.dst]++
				}
				traced := 0
				for _, tr := range rep.Targets {
					if tr.Result == nil {
						continue
					}
					traced++
					if named[tr.Dst] != 1 {
						t.Errorf("target %v named by %d probers' first packets, want 1", tr.Dst, named[tr.Dst])
					}
				}
				if traced != len(taps) {
					t.Errorf("%d targets traced by %d probers", traced, len(taps))
				}
			})
		}
	}
}
