package experiments

import (
	"fmt"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

// OverheadPoint is one measurement of the §3.6 probing-overhead model: the
// observed probe cost of discovering one subnet of |S| interfaces, compared
// with the paper's analytical envelope.
type OverheadPoint struct {
	// Members is |S|, the number of interfaces on the discovered subnet.
	Members int
	// Probes is the measured packet cost of positioning + exploring it.
	Probes uint64
	// PaperUpperBound is the paper's worst-case model 7|S|+7.
	PaperUpperBound int
	// PointToPoint marks the lower-bound regime (constant cost).
	PointToPoint bool
}

// Overhead measures probing cost across subnet sizes: the point-to-point
// lower bound and a sweep of multi-access LAN sizes.
func Overhead() ([]OverheadPoint, error) {
	var out []OverheadPoint

	// Lower bound: on-path point-to-point subnets in a chain.
	{
		top := topo.Chain(5)
		n := netsim.New(top, netsim.Config{})
		port, err := n.PortFor("vantage")
		if err != nil {
			return nil, err
		}
		pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
		res, err := core.Trace(pr, ipv4.MustParseAddr("10.9.255.2"), core.Config{})
		if err != nil {
			return nil, err
		}
		for _, s := range res.Subnets {
			if s.PointToPoint() {
				out = append(out, OverheadPoint{
					Members:         len(s.Addrs),
					Probes:          s.Probes,
					PaperUpperBound: 7*len(s.Addrs) + 7,
					PointToPoint:    true,
				})
			}
		}
	}

	// Upper-bound regime: multi-access LANs of growing size.
	for _, k := range []int{6, 10, 16, 24, 40, 60, 100} {
		p, err := lanCost(k)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// lanCost builds a LAN with k member interfaces behind a two-hop core and
// measures the probe cost of collecting it.
func lanCost(k int) (OverheadPoint, error) {
	b := netsim.NewBuilder()
	v := b.Host("vantage")
	r1 := b.Router("R1")
	r2 := b.Router("R2")
	a := b.Subnet("10.255.0.0/30")
	b.Attach(v, a, "10.255.0.1")
	b.Attach(r1, a, "10.255.0.2")
	up := b.Subnet("10.255.1.0/31")
	b.Attach(r1, up, "10.255.1.0")
	b.Attach(r2, up, "10.255.1.1")

	// Smallest prefix fully containing k members plus boundaries.
	bits := 32
	for (uint64(1) << (32 - bits)) < uint64(k)+3 {
		bits--
	}
	base := ipv4.MustParseAddr("10.7.0.0")
	s := b.SubnetP(ipv4.NewPrefix(base, bits))
	b.AttachA(r2, s, base+1)
	var first *netsim.Router
	for i := 2; i <= k; i++ {
		m := b.Router(fmt.Sprintf("M%d", i))
		b.AttachA(m, s, base+ipv4.Addr(i))
		if first == nil {
			first = m
		}
	}
	d := b.Host("dest")
	ds := b.Subnet("10.255.2.0/30")
	b.Attach(first, ds, "10.255.2.1")
	b.Attach(d, ds, "10.255.2.2")

	top, err := b.Build()
	if err != nil {
		return OverheadPoint{}, err
	}
	n := netsim.New(top, netsim.Config{})
	port, err := n.PortFor("vantage")
	if err != nil {
		return OverheadPoint{}, err
	}
	pr := probe.New(port, port.LocalAddr(), probe.Options{Cache: true, Retry: &probe.RetryPolicy{}})
	res, err := core.Trace(pr, ipv4.MustParseAddr("10.255.2.2"), core.Config{})
	if err != nil {
		return OverheadPoint{}, err
	}
	for _, sub := range res.Subnets {
		if sub.Prefix.Contains(base + 2) {
			return OverheadPoint{
				Members:         len(sub.Addrs),
				Probes:          sub.Probes,
				PaperUpperBound: 7*len(sub.Addrs) + 7,
			}, nil
		}
	}
	return OverheadPoint{}, fmt.Errorf("experiments: LAN with %d members not collected", k)
}
