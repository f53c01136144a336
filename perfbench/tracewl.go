package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"tracenet/internal/cli"
	"tracenet/internal/core"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// The trace workload is a closed loop with one client running
// single-destination traces the way the tracenet command does: each
// operation builds a fresh netsim.Network over a pre-built Internet2 or GEANT
// topology, runs core.Trace with the probe cache, and moves on to the next
// Table 1/2 target. The seed picks where in the target cycle a run starts.
const (
	traceMinOps  = 1100                   // a p99 needs ten samples beyond it
	traceSegment = 250 * time.Millisecond // of tracing per rate segment
	traceGCEvery = 16                     // operations between collections, ~40 MiB of garbage
)

// traceCase is one target of the cycle and its reference outcome, taken
// from the warm-up pass over the whole cycle.
type traceCase struct {
	sc     *cli.Scenario
	topo   int // index into the loaded scenarios
	dst    ipv4.Addr
	probes uint64
	digest [32]byte
}

func runTrace(e *env) (*outcome, error) {
	o := newOutcome()
	names := []string{"internet2", "geant"}
	var (
		scs    []*cli.Scenario
		setups []float64
		builds []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		scs = scs[:0]
		for _, n := range names {
			sc, err := cli.Load(n, e.seed)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
		builds = append(builds, since(t0)*1e3)
		for _, sc := range scs {
			netsim.New(sc.Topo, netsim.Config{Seed: e.seed})
		}
		setups = append(setups, since(t0))
	}
	o.e2e["setup_s"] = median(setups)
	o.layer["topo.build_ms"] = median(builds)

	cases := interleave(scs)
	tw := &traceWorkload{e: e}

	// Warm-up: one untimed pass over the whole cycle fixes each target's
	// reference outcome and the accuracy score.
	collected := make([][]*core.Subnet, len(scs))
	for _, c := range cases {
		r, err := tw.op(c, 0, false)
		if err != nil {
			return nil, err
		}
		c.probes, c.digest = r.probes, r.digest
		collected[c.topo] = append(collected[c.topo], r.res.Subnets...)
	}
	var exact, coll, exactTruth, truthN int
	for i, sc := range scs {
		t0 := time.Now()
		truth := groundtruth.FromTopology(sc.Topo, groundtruth.Options{})
		score := truth.Score(groundtruth.FromCoreSubnets(collected[i]))
		e.tr.add("groundtruth.score", 0, -1, t0, time.Now())
		exact += score.ExactCollected
		coll += score.CollectedSubnets
		exactTruth += score.ExactTruth
		truthN += score.TruthSubnets
	}
	var cycleProbes uint64
	cycle := sha256.New()
	for _, c := range cases {
		cycleProbes += c.probes
		cycle.Write(c.digest[:])
	}

	offset := int(uint64(e.seed) % uint64(len(cases)))
	var lat []float64
	var total meter
	m0 := readMeter()
	seg := segments{minBusy: traceSegment}
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	ops := 0
	// A tracenet command runs its one trace on a fresh heap and exits before
	// the collector has much to do. The loop matches that: the collector is
	// off while operations run, and the heap is collected, untimed, every
	// traceGCEvery operations, so no trace pays for another's garbage. A
	// collection per operation would cost more than the operation itself and
	// leave most of the run unmeasured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for ops < traceMinOps || time.Now().Before(deadline) {
		c := cases[(offset+ops)%len(cases)]
		if ops%traceGCEvery == 0 {
			runtime.GC()
		}
		ops++
		c0 := cpuTime()
		r, err := tw.op(c, uint64(ops), true)
		cpu := cpuTime() - c0
		if err != nil {
			o.failed++
			o.fail("trace op %d (%v): %v", ops, c.dst, err)
			continue
		}
		lat = append(lat, r.ms)
		seg.add(1, time.Duration(r.ms*float64(time.Millisecond)), cpu)
		if r.probes != c.probes || r.digest != c.digest {
			o.failed++
			o.fail("trace op %d (%v): %d probes, digest %x; warm-up had %d, %x", ops, c.dst, r.probes, r.digest[:4], c.probes, c.digest[:4])
		}
	}
	wall := since(start)
	total.add(m0, readMeter())
	o.attempted = ops

	seg.report(o)
	if p99, err := percentile(lat, 0.99); err == nil {
		o.e2e["latency_p99_ms"] = p99
	}
	if p50, err := percentile(lat, 0.50); err == nil {
		o.e2e["latency_p50_ms"] = p50
	}
	total.perTarget(o, ops)
	o.e2e["wire_probes_per_target"] = float64(cycleProbes) / float64(len(cases))
	o.e2e["subnet_precision"] = ratio(float64(exact), float64(coll))
	o.e2e["subnet_recall"] = ratio(float64(exactTruth), float64(truthN))
	o.e2e["op_success_ratio"] = successRatio(o.attempted, o.failed)

	tw.totals.layerMetrics(o.layer)
	lt := e.tr.layers()
	o.layer["netsim.new_ms"] = lt["netsim.new"].meanMS()
	o.layer["groundtruth.score_ms"] = lt["groundtruth.score"].meanMS()

	if err := checkDigest(e, o, fmt.Sprintf("trace-seed%d", e.seed), fmt.Sprintf("%x %d", cycle.Sum(nil), cycleProbes)); err != nil {
		return nil, err
	}
	e.logf("trace: %d ops over a %d-target cycle in %.2f s", ops, len(cases), wall)
	return o, nil
}

// interleave lists every scenario's destinations as one cycle, spreading
// each scenario evenly over it so that any stretch of the cycle mixes the
// topologies in the same proportion.
func interleave(scs []*cli.Scenario) []*traceCase {
	total := 0
	for _, sc := range scs {
		total += len(sc.Destinations)
	}
	cases := make([]*traceCase, 0, total)
	next := make([]int, len(scs))
	for len(cases) < total {
		// Take from the scenario furthest behind its even share.
		best, lag := -1, 0.0
		for i, sc := range scs {
			n := len(sc.Destinations)
			if next[i] == n {
				continue
			}
			if l := float64(len(cases)+1)*float64(n)/float64(total) - float64(next[i]); best < 0 || l > lag {
				best, lag = i, l
			}
		}
		sc := scs[best]
		cases = append(cases, &traceCase{sc: sc, topo: best, dst: sc.Destinations[next[best]]})
		next[best]++
	}
	return cases
}

// traceWorkload carries the per-run state of the trace loop.
type traceWorkload struct {
	e      *env
	totals exchangeTotals
}

// traceOp is one operation's outcome.
type traceOp struct {
	ms     float64
	probes uint64
	digest [32]byte
	res    *core.Result
}

// op runs one single-destination trace over a fresh network. Only timed
// operations record spans and layer counters.
func (tw *traceWorkload) op(c *traceCase, id uint64, timed bool) (traceOp, error) {
	tr := tw.e.tr
	if !timed {
		tr = nil
	}
	t0 := time.Now()
	net := netsim.New(c.sc.Topo, netsim.Config{Seed: tw.e.seed})
	t1 := time.Now()
	port, err := net.PortFor(c.sc.Vantage)
	if err != nil {
		return traceOp{}, err
	}
	t := &tap{port: port, timed: tr != nil, burn: tw.e.burn}
	pr := probe.New(t, port.LocalAddr(), probe.Options{Cache: true})
	t2 := time.Now()
	res, err := core.Trace(pr, c.dst, core.Config{})
	t3 := time.Now()
	if err != nil {
		return traceOp{}, err
	}
	if tr != nil {
		root := tr.add("op", id, -1, t0, t3)
		tr.add("netsim.new", id, root, t0, t1)
		tr.add("core.trace", id, root, t2, t3)
		tw.totals.add(t, t3.Sub(t2))
	}
	return traceOp{
		ms:     float64(t3.Sub(t0)) / 1e6,
		probes: pr.Stats().Sent,
		digest: resultDigest(res, pr.Stats().Sent),
		res:    res,
	}, nil
}

// resultDigest hashes what a trace found: reachability, hop addresses and
// every subnet with its members, plus the wire-probe count.
func resultDigest(r *core.Result, probes uint64) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(probes)
	if r.Reached {
		put(1)
	} else {
		put(0)
	}
	for _, hop := range r.Hops {
		put(uint64(hop.Addr))
	}
	for _, s := range r.Subnets {
		put(uint64(s.Prefix.Base())<<8 | uint64(s.Prefix.Bits()))
		for _, a := range s.Addrs {
			put(uint64(a))
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
