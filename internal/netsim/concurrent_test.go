package netsim_test

// Race-detector coverage for concurrent Sessions driving one shared Network
// (the campaign engine's substrate, see internal/collect). On a clean
// configuration the engine takes its lock-free injection path, so every
// per-target trace must come out identical to a sequential run — and the
// race detector must stay silent while ≥8 sessions probe simultaneously.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
	"tracenet/internal/wire"
)

// concurrentSpec is shared by the sequential baseline and the concurrent run
// so both operate on identically-generated topologies.
var concurrentSpec = topo.RandomSpec{Seed: 1701, Backbone: 8, Leaves: 16, ExtraLinks: 3}

// traceOne runs one independent session (fresh prober, fresh session state)
// against dst and returns the rendered result.
func traceOne(n *netsim.Network, dst ipv4.Addr) (string, error) {
	port, err := n.PortFor("vantage")
	if err != nil {
		return "", err
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	res, err := core.NewSession(pr, core.Config{}).Trace(dst)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

func TestConcurrentSessionsSharedNetwork(t *testing.T) {
	tp, targets := topo.Random(concurrentSpec)
	if len(targets) < 8 {
		t.Fatalf("spec yielded %d targets, need >= 8", len(targets))
	}

	// Sequential baseline on its own network instance.
	baseNet := netsim.New(tp, netsim.Config{Seed: 7})
	want := make([]string, len(targets))
	for i, dst := range targets {
		out, err := traceOne(baseNet, dst)
		if err != nil {
			t.Fatalf("baseline trace %v: %v", dst, err)
		}
		want[i] = out
	}
	baseProbes, baseReplies := baseNet.Counters()

	// Concurrent run: one goroutine per target, all sharing one Network.
	tp2, _ := topo.Random(concurrentSpec)
	sharedNet := netsim.New(tp2, netsim.Config{Seed: 7})
	got := make([]string, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, dst := range targets {
		wg.Add(1)
		go func(i int, dst ipv4.Addr) {
			defer wg.Done()
			got[i], errs[i] = traceOne(sharedNet, dst)
		}(i, dst)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent trace %v: %v", targets[i], err)
		}
	}
	for i := range targets {
		if got[i] != want[i] {
			t.Errorf("target %v: concurrent result diverged from sequential baseline\n--- sequential\n%s--- concurrent\n%s",
				targets[i], want[i], got[i])
		}
	}

	// Per-target traces are independent on a clean network, so the shared
	// network must have seen exactly the same wire traffic in aggregate.
	probes, replies := sharedNet.Counters()
	if probes != baseProbes || replies != baseReplies {
		t.Errorf("counters diverged: concurrent probes=%d replies=%d, sequential probes=%d replies=%d",
			probes, replies, baseProbes, baseReplies)
	}
}

// TestConcurrentExchangeSamePort hammers a single shared Port from many
// goroutines: Ports are stateless, so this must be race-free and every
// exchange must behave as if issued alone.
func TestConcurrentExchangeSamePort(t *testing.T) {
	tp, targets := topo.Random(concurrentSpec)
	n := netsim.New(tp, netsim.Config{Seed: 7})
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(targets))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
			for _, dst := range targets {
				r, err := pr.Direct(dst)
				if err != nil {
					errc <- fmt.Errorf("worker %d direct %v: %v", w, dst, err)
					return
				}
				if !r.Alive() && !r.Silent() {
					errc <- fmt.Errorf("worker %d direct %v: unexpected outcome %v", w, dst, r.Kind)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// probeSequence exchanges a fixed list of probes (every target at TTLs 1–8)
// through the vantage port of n and returns each reply's bytes, nil for
// silence.
func probeSequence(t *testing.T, n *netsim.Network, targets []ipv4.Addr) [][]byte {
	t.Helper()
	port, err := n.PortFor("vantage")
	if err != nil {
		t.Error(err)
		return nil
	}
	var out [][]byte
	for _, dst := range targets {
		for ttl := uint8(1); ttl <= 8; ttl++ {
			raw, err := wire.NewEchoRequest(port.LocalAddr(), dst, ttl, 0x5151, uint16(ttl)).Encode()
			if err != nil {
				t.Error(err)
				return nil
			}
			reply, err := port.Exchange(raw)
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, append([]byte(nil), reply...))
		}
	}
	return out
}

// TestNetworksShareTopology runs two networks on one topology at once: each
// must answer exactly as a lone network on its own topology does, IP-IDs and
// loss draws included, since both belong to the network. The two share the
// topology's routes, so together they build no more route tables than the
// lone network did, and each table once.
func TestNetworksShareTopology(t *testing.T) {
	cfg := netsim.Config{Seed: 7, LossRate: 0.1}
	lone, targets := topo.Random(concurrentSpec)
	want := probeSequence(t, netsim.New(lone, cfg), targets)
	loneBuilds, loneHeld := netsim.RouteTables(lone)
	if loneBuilds == 0 || loneBuilds != loneHeld {
		t.Fatalf("lone topology built %d route tables and holds %d", loneBuilds, loneHeld)
	}

	shared, _ := topo.Random(concurrentSpec)
	nets := []*netsim.Network{netsim.New(shared, cfg), netsim.New(shared, cfg)}
	if builds, _ := netsim.RouteTables(shared); builds != 0 {
		t.Fatalf("netsim.New built %d route tables; routes are built on first use", builds)
	}
	got := make([][][]byte, len(nets))
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = probeSequence(t, n, targets)
		}()
	}
	wg.Wait()

	for i := range nets {
		if len(got[i]) != len(want) {
			t.Fatalf("network %d: %d replies, lone network %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[i][j], want[j]) {
				t.Fatalf("network %d, probe %d (%v ttl %d): reply % x, lone network % x",
					i, j, targets[j/8], j%8+1, got[i][j], want[j])
			}
		}
	}
	builds, held := netsim.RouteTables(shared)
	if builds != loneBuilds || held != loneHeld {
		t.Fatalf("two networks built %d route tables (holding %d); one network alone built %d",
			builds, held, loneBuilds)
	}
}
