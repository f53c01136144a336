package netsim_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tracenet/internal/collect"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// scaleSpec is a 16,384-leaf topology: 85,265 routers and 16,424 subnets.
// A dense (router × subnet) route table over it would take about 16.8 GB.
var scaleSpec = topo.RandomSpec{Seed: 42, Backbone: 32, Leaves: 16384, LANFraction: 0.5, ExtraLinks: 8}

// scaleHeapBound caps the live heap a network and a 64-target campaign add
// to scaleSpec's topology: the route tables of the subnets the campaign
// heads for, the network's per-router state and the report.
const scaleHeapBound = 96 << 20

// TestSixteenThousandLeafCampaignHeap builds a network on scaleSpec and runs
// a 64-target campaign at Parallel 2, and checks the live heap they add.
// Routes are built per destination subnet on first use, so the heap grows
// with the subnets the campaign reaches, not with the topology's size
// squared. Generating the topology takes a few seconds, so -short skips it.
func TestSixteenThousandLeafCampaignHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 16,384-leaf topology")
	}
	tp, targets := topo.Random(scaleSpec)
	if len(tp.Routers) != 85265 || len(tp.Subnets) != 16424 {
		t.Fatalf("topology has %d routers and %d subnets, want 85,265 and 16,424", len(tp.Routers), len(tp.Subnets))
	}
	before := liveHeap()
	start := time.Now()
	n := netsim.New(tp, netsim.Config{Seed: 1})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := collect.Run(context.Background(), collect.Config{
		Targets:  targets[:64],
		Parallel: 2,
		Probe:    probe.Options{Cache: true},
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for _, row := range rep.Targets {
		if row.Status != collect.StatusDone {
			t.Fatalf("target %v: status %v (%s)", row.Dst, row.Status, row.Note)
		}
	}
	added := liveHeap() - before
	builds, _ := netsim.RouteTables(tp)
	t.Logf("netsim.New + 64-target campaign: %.2f s, +%.1f MiB live heap, %d route tables",
		elapsed.Seconds(), float64(added)/(1<<20), builds)
	if added > scaleHeapBound {
		t.Fatalf("network and campaign added %.1f MiB of live heap, bound %d MiB",
			float64(added)/(1<<20), scaleHeapBound>>20)
	}
	runtime.KeepAlive(n)
	runtime.KeepAlive(rep)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
