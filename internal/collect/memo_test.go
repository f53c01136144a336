package collect_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
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

// digestField and versionField are the checkpoint fields a probe memo may
// change: the schema version and the spec digest it added.
var (
	digestField  = regexp.MustCompile(`"digest":"[0-9a-f]*",`)
	versionField = regexp.MustCompile(`^\{"version":[0-9]+,`)
)

// renderCampaign resolves the spec, runs it at the given worker count, and
// returns its wire total and a line of sha256 digests of what it renders:
// the report, the eval JSON and the checkpoint (without its version and
// digest).
func renderCampaign(t *testing.T, topology string, seed int64, parallel int) (uint64, string) {
	t.Helper()
	c, err := (&daemon.Spec{Topology: topology, Seed: seed, Parallel: parallel}).Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	rep := runOrFatal(t, context.Background(), c.Config)
	var report, cp, eval bytes.Buffer
	if _, err := rep.WriteTo(&report); err != nil {
		t.Fatal(err)
	}
	if err := collect.WriteCheckpoint(&cp, rep.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	truth := groundtruth.FromTopology(c.Scenario.Topo, groundtruth.Options{})
	if err := truth.Score(groundtruth.FromCoreSubnets(rep.Subnets())).WriteJSON(&eval); err != nil {
		t.Fatal(err)
	}
	ck := versionField.ReplaceAll(digestField.ReplaceAll(cp.Bytes(), nil), []byte(`{"version":_,`))
	return rep.Stats.WireProbes, fmt.Sprintf("%s-%d p%d report=%x eval=%x checkpoint=%x", topology, seed, parallel,
		sha256.Sum256(report.Bytes()), sha256.Sum256(eval.Bytes()), sha256.Sum256(ck))
}

// renderedSpecs are the campaigns the rendering golden pins.
func renderedSpecs() []daemon.Spec {
	specs := []daemon.Spec{{Topology: "internet2", Seed: 1}, {Topology: "geant", Seed: 1}}
	for seed := int64(1); seed <= 12; seed++ {
		specs = append(specs, daemon.Spec{Topology: "random", Seed: seed})
	}
	return specs
}

// TestCampaignRenderingGolden pins what clean campaigns render — the
// report, the eval JSON and the complete checkpoint, whose version and spec
// digest are masked — at 1, 2 and 8 workers, against digests recorded
// before campaigns shared a probe memo: sharing probes changes what goes on
// the wire, never what a campaign reports. It also pins the wire totals:
// each distinct logical probe goes on the wire once per campaign, plus each
// target's own TTL-1 trace probe, at any worker count. Regenerate the
// golden with UPDATE_GOLDEN=1.
func TestCampaignRenderingGolden(t *testing.T) {
	var got strings.Builder
	wire := map[string]uint64{}
	for _, sp := range renderedSpecs() {
		for _, parallel := range []int{1, 2, 8} {
			w, line := renderCampaign(t, sp.Topology, sp.Seed, parallel)
			got.WriteString(line + "\n")
			wire[fmt.Sprintf("%s p%d", sp.Topology, parallel)] += w
		}
	}
	path := filepath.Join("testdata", "rendering.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("rendered %d lines, the golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("rendering moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}

	for _, parallel := range []int{1, 2, 8} {
		for topology, want := range map[string]uint64{"internet2": 3135, "geant": 4734, "random": 8338} {
			if got := wire[fmt.Sprintf("%s p%d", topology, parallel)]; got != want {
				t.Errorf("p%d: %s campaigns sent %d wire probes, want %d", parallel, topology, got, want)
			}
		}
	}
}
