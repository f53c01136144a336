package netsim

import (
	"math"
	"sync/atomic"

	"tracenet/internal/ipv4"
	"tracenet/internal/wire"
)

// unreachableDist marks a router with no route to a subnet. Distances
// saturate below it: a router more than 32,766 forwarding steps from a
// subnet has no route to it, a path no probe walks (maxHops is 64).
const unreachableDist int16 = math.MaxInt16

// routeTable is one destination subnet's routes: every router's hop distance
// to the subnet, the basis of shortest-path (and equal-cost multipath)
// forwarding, and a memo of each router's equal-cost next hops. A Topology
// builds a subnet's table when the first probe heads for it
// (Topology.routesTo) and every Network on the topology shares it, so no
// network pays for routes to subnets its probes never head for.
type routeTable struct {
	// dist[r.idx] = forwarding steps from router r until attached to the
	// subnet (0 if attached). A host is 0 when attached and unreachableDist
	// otherwise: it never forwards, and nextHops derives its first hop from
	// its neighbours. Immutable after publication.
	dist []int16
	// hops memoizes the equal-cost candidate edges per router, indexed by
	// r.idx. Each slot is an atomic pointer so the memo is lock-free on the
	// injection path: a miss computes the slice and publishes it; racing
	// computations produce identical slices (the scan is a pure function of
	// immutable state), so whichever store wins is correct. Published
	// slices are never mutated.
	hops []atomic.Pointer[[]edge]
}

// routesTo returns the route table toward s, building it on first use. A
// hit is one atomic load; a miss builds under routeMu, so one subnet's
// routes are computed once however many networks ask at the same time.
func (t *Topology) routesTo(s *Subnet) *routeTable {
	if rt := t.routes[s.idx].Load(); rt != nil {
		return rt
	}
	return t.buildRoutes(s)
}

// buildRoutes computes and publishes s's route table unless a racing caller
// already has. The distances come from a BFS over the bipartite
// router-subnet graph, which stays linear in the number of interfaces even
// when subnets are large multi-access LANs (a clique-based BFS would be
// quadratic in LAN size). Each router enters the queue once, so the
// topology's scratch queue never outgrows its first allocation.
func (t *Topology) buildRoutes(s *Subnet) *routeTable {
	t.routeMu.Lock()
	defer t.routeMu.Unlock()
	if rt := t.routes[s.idx].Load(); rt != nil {
		return rt
	}
	if t.bfsQueue == nil {
		t.bfsQueue = make([]int32, 0, len(t.Routers))
		t.bfsSeen = make([]bool, len(t.Subnets))
	}
	queue, subnetSeen := t.bfsQueue[:0], t.bfsSeen
	clear(subnetSeen)
	dist := make([]int16, len(t.Routers))
	for i := range dist {
		dist[i] = unreachableDist
	}
	for _, i := range s.Ifaces {
		if dist[i.Router.idx] != 0 {
			dist[i.Router.idx] = 0
			queue = append(queue, int32(i.Router.idx))
		}
	}
	subnetSeen[s.idx] = true
	// Alternating BFS: routers at distance k expand through their subnets
	// to routers at distance k+1. Hosts never forward transit traffic, so
	// they are sources (when attached) but never expanded.
	for head := 0; head < len(queue); head++ {
		r := t.Routers[queue[head]]
		if r.IsHost {
			continue
		}
		d := dist[r.idx] + 1
		for _, ri := range r.Ifaces {
			sn := ri.Subnet
			if subnetSeen[sn.idx] {
				continue
			}
			subnetSeen[sn.idx] = true
			for _, ni := range sn.Ifaces {
				nb := ni.Router
				if !nb.IsHost && dist[nb.idx] > d {
					dist[nb.idx] = d
					queue = append(queue, int32(nb.idx))
				}
			}
		}
	}
	t.bfsQueue = queue
	rt := &routeTable{dist: dist, hops: make([]atomic.Pointer[[]edge], len(t.Routers))}
	t.routeBuilds++
	t.routes[s.idx].Store(rt)
	return rt
}

// nextHops returns the equal-cost candidate edges from r toward the table's
// subnet. The result is ordered as the router's edge list, so selection by
// flow hash is deterministic. Results are memoized: the edge scan over a
// router with a large LAN attachment would otherwise dominate every
// forwarding step. The memo is lock-free (see routeTable.hops), making
// nextHops safe for concurrent walks; memoized slices are never mutated
// after publication.
func (rt *routeTable) nextHops(r *Router) []edge {
	d := rt.dist[r.idx]
	if d == 0 || (d == unreachableDist && !r.IsHost) {
		return nil
	}
	slot := &rt.hops[r.idx]
	if memo := slot.Load(); memo != nil {
		return *memo
	}
	// A router forwards to neighbours one step closer. A host not on the
	// subnet originates through its access subnet: its next hops are the
	// nearest routers there.
	want := d - 1
	if r.IsHost {
		want = unreachableDist
		for _, e := range r.edges {
			if !e.to.IsHost && rt.dist[e.to.idx] < want {
				want = rt.dist[e.to.idx]
			}
		}
	}
	var out []edge
	if want != unreachableDist {
		for _, e := range r.edges {
			if !e.to.IsHost && rt.dist[e.to.idx] == want {
				out = append(out, e)
			}
		}
	}
	slot.Store(&out)
	return out
}

// flowKey extracts the fields of a probe that identify its "flow" for
// equal-cost multipath hashing. ICMP flows are keyed by (src, dst, ID) — the
// sequence number is excluded, which is why ICMP probing is the least
// affected by load balancing (paper §3.7 and [15]): a prober that holds its
// ICMP ID constant keeps a stable path. UDP and TCP flows are keyed by the
// port pair, so classic UDP traceroute (which increments the destination
// port per probe) fluctuates under ECMP.
func flowKey(p *wire.Packet) (a, b uint16) {
	switch {
	case p.ICMP != nil:
		return p.ICMP.ID, 0
	case p.UDP != nil:
		return p.UDP.SrcPort, p.UDP.DstPort
	case p.TCP != nil:
		return p.TCP.SrcPort, p.TCP.DstPort
	}
	return 0, 0
}

// FNV-1a constants (the 64-bit offset basis and prime), matching hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ecmpIndex hashes the flow (plus the deciding router and, in per-packet
// mode, the virtual clock) onto one of n equal-cost candidates. The FNV-1a
// hash is inlined rather than taken from hash/fnv: constructing a hash.Hash64
// escapes to the heap, and this runs on every forwarding step of every probe.
// The digest is bit-identical to fnv.New64a over the same bytes, so path
// choices match the historical implementation exactly.
func ecmpIndex(p *wire.Packet, r *Router, perPacketSalt uint64, n int) int {
	if n <= 1 {
		return 0
	}
	var buf [25]byte
	put32 := func(off int, v uint32) {
		buf[off] = byte(v >> 24)
		buf[off+1] = byte(v >> 16)
		buf[off+2] = byte(v >> 8)
		buf[off+3] = byte(v)
	}
	put32(0, uint32(p.IP.Src))
	put32(4, uint32(p.IP.Dst))
	buf[8] = p.IP.Protocol
	ka, kb := flowKey(p)
	buf[9] = byte(ka >> 8)
	buf[10] = byte(ka)
	buf[11] = byte(kb >> 8)
	buf[12] = byte(kb)
	put32(13, uint32(r.idx))
	buf[17] = byte(perPacketSalt >> 56)
	buf[18] = byte(perPacketSalt >> 48)
	buf[19] = byte(perPacketSalt >> 40)
	buf[20] = byte(perPacketSalt >> 32)
	buf[21] = byte(perPacketSalt >> 24)
	buf[22] = byte(perPacketSalt >> 16)
	buf[23] = byte(perPacketSalt >> 8)
	buf[24] = byte(perPacketSalt)
	h := uint64(fnvOffset64)
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// replySource resolves the source address a router uses for a reply under the
// given policy. probed is the locally delivered destination interface (direct
// probes), in is the interface the probe arrived on, and src is the probe
// originator (for shortest-path resolution). Returns nil when the policy
// yields no usable interface (the router stays silent).
func (t *Topology) replySource(r *Router, policy ResponsePolicy, probed, in *Iface, src ipv4.Addr) *Iface {
	switch policy {
	case PolicyProbed:
		return probed
	case PolicyIncoming:
		return in
	case PolicyDefault:
		return r.DefaultIface
	case PolicyShortestPath:
		return t.shortestPathIface(r, src)
	}
	return nil
}

// shortestPathIface returns r's interface on the first hop of the shortest
// path from r back to addr.
func (t *Topology) shortestPathIface(r *Router, addr ipv4.Addr) *Iface {
	s := t.targetSubnet(addr)
	if s == nil {
		return r.DefaultIface
	}
	if i := r.IfaceOn(s); i != nil {
		return i
	}
	hops := t.routesTo(s).nextHops(r)
	if len(hops) == 0 {
		return r.DefaultIface
	}
	return hops[0].local
}

// targetSubnet resolves the subnet a destination address routes toward:
// the assigned interface's subnet, or the longest covering prefix.
func (t *Topology) targetSubnet(addr ipv4.Addr) *Subnet {
	if i := t.IfaceByAddr(addr); i != nil {
		return i.Subnet
	}
	return t.SubnetContaining(addr)
}
