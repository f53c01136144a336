// Package netsim simulates the network-layer behaviour of an IPv4 internet
// at exactly the granularity tracenet observes: routers with multiple
// addressed interfaces, subnets connecting them, TTL-scoped forwarding, and
// the five router response configurations the paper enumerates in §3.1(iii)
// (nil, probed, incoming, shortest-path, and default interface).
//
// The simulator substitutes for the live Internet the paper measured. A probe
// is injected as encoded wire bytes at a vantage host, walked hop by hop
// through the router graph with standard TTL semantics, and answered (or not)
// according to the visited router's response configuration, protocol
// responsiveness, firewalls, rate limits, and loss. Equal-cost multipath and
// per-packet load balancing reproduce the path-fluctuation dynamics of §3.7.
package netsim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tracenet/internal/ipv4"
)

// Iface is a single addressed interface: it belongs to exactly one router and
// sits on exactly one subnet.
type Iface struct {
	Addr   ipv4.Addr
	Router *Router
	Subnet *Subnet

	// Responsive gates direct probes to this address. Clearing it models the
	// paper's "partially unresponsive subnet": a mixture of responsive and
	// unresponsive interfaces on one LAN.
	Responsive bool
}

func (i *Iface) String() string {
	if i == nil {
		return "<nil iface>"
	}
	return fmt.Sprintf("%s@%s", i.Addr, i.Router.Name)
}

// ResponsePolicy selects which interface address a router reports as the
// source of its replies (paper §3.1(iii), "Router Response Configuration").
type ResponsePolicy uint8

const (
	// PolicyNil: the router never responds.
	PolicyNil ResponsePolicy = iota
	// PolicyProbed: respond with the probed interface's address. The usual
	// configuration for direct probes; impossible for indirect probes.
	PolicyProbed
	// PolicyIncoming: respond with the address of the interface through which
	// the probe entered the router.
	PolicyIncoming
	// PolicyShortestPath: respond with the address of the interface on the
	// shortest path from the router back to the probe originator.
	PolicyShortestPath
	// PolicyDefault: respond with a pre-designated default address.
	PolicyDefault
)

func (p ResponsePolicy) String() string {
	switch p {
	case PolicyNil:
		return "nil"
	case PolicyProbed:
		return "probed"
	case PolicyIncoming:
		return "incoming"
	case PolicyShortestPath:
		return "shortest-path"
	case PolicyDefault:
		return "default"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ProtoMask is a set of probe protocols a router responds to.
type ProtoMask uint8

const (
	ProtoMaskICMP ProtoMask = 1 << iota
	ProtoMaskUDP
	ProtoMaskTCP
	ProtoMaskAll = ProtoMaskICMP | ProtoMaskUDP | ProtoMaskTCP
)

// Has reports whether the mask admits the given IP protocol number.
func (m ProtoMask) Has(ipProto uint8) bool {
	switch ipProto {
	case 1:
		return m&ProtoMaskICMP != 0
	case 17:
		return m&ProtoMaskUDP != 0
	case 6:
		return m&ProtoMaskTCP != 0
	}
	return false
}

// Router is a forwarding node. Hosts (vantage points, probe targets that are
// end systems) are modelled as single-interface routers with IsHost set; a
// host never forwards because it has only one attachment.
type Router struct {
	Name   string
	Ifaces []*Iface
	IsHost bool

	// DirectPolicy answers direct probes (destined to one of our addresses);
	// IndirectPolicy answers TTL expiry. DefaultIface backs PolicyDefault.
	DirectPolicy   ResponsePolicy
	IndirectPolicy ResponsePolicy
	DefaultIface   *Iface

	// DirectProtos / IndirectProtos gate responsiveness per probe protocol,
	// reproducing the paper's Table 3 observation that routers answer ICMP
	// far more readily than UDP, and UDP more readily than TCP.
	DirectProtos   ProtoMask
	IndirectProtos ProtoMask

	// EmitUnreachable makes the router send ICMP host/net-unreachable for
	// undeliverable destinations instead of staying silent.
	EmitUnreachable bool

	// RRCompliant makes the router honor the IP record-route option,
	// stamping its outgoing interface as it forwards (RFC 791; the DisCarte
	// baseline relies on compliant routers).
	RRCompliant bool

	// ReplyLoss is the probability in [0,1) that any individual reply from
	// this router is dropped — load-dependent responsiveness, the paper's
	// §4.2 explanation for cross-vantage disagreement ("routers or ISPs
	// regulate their responsiveness to probes based on the traffic load").
	// Draws come from the Network's seeded stream, so two campaigns with
	// different seeds observe different subsets of this router's replies.
	ReplyLoss float64

	// IPIDRandom makes the router draw reply IP identifiers from the
	// network's random stream instead of the router's IP-ID counter.
	// Counter-based routers are what Ally-style alias resolution relies on;
	// random-ID routers defeat it (a known coverage limitation).
	IPIDRandom bool

	idx   int
	edges []edge
}

// edge is a usable adjacency: a neighbouring router reachable across one
// subnet, together with the interfaces on both ends.
type edge struct {
	to     *Router
	via    *Subnet
	local  *Iface
	remote *Iface
}

// IfaceWithAddr returns the router's interface carrying addr, or nil.
func (r *Router) IfaceWithAddr(addr ipv4.Addr) *Iface {
	for _, i := range r.Ifaces {
		if i.Addr == addr {
			return i
		}
	}
	return nil
}

// IfaceOn returns the router's interface on subnet s, or nil.
func (r *Router) IfaceOn(s *Subnet) *Iface {
	for _, i := range r.Ifaces {
		if i.Subnet == s {
			return i
		}
	}
	return nil
}

// Addr returns the router's (first) address; convenient for hosts.
func (r *Router) Addr() ipv4.Addr {
	if len(r.Ifaces) == 0 {
		return ipv4.Zero
	}
	return r.Ifaces[0].Addr
}

// Subnet is a LAN (point-to-point link or multi-access segment) identified by
// its CIDR prefix, hosting the interfaces directly connected to it.
type Subnet struct {
	Prefix ipv4.Prefix
	Ifaces []*Iface

	// Unresponsive models a firewall in front of the subnet that silently
	// drops every probe destined into the subnet's address range (the paper's
	// "totally unresponsive subnet").
	Unresponsive bool

	idx int
}

// IsPointToPoint reports whether the subnet is a /31 or /30 point-to-point
// link, the paper's distinction between p2p and multi-access LANs.
func (s *Subnet) IsPointToPoint() bool { return s.Prefix.Bits() >= 30 }

// HostAttached reports whether any interface on the subnet belongs to a host
// (vantage point or end system) rather than a router.
func (s *Subnet) HostAttached() bool {
	for _, i := range s.Ifaces {
		if i.Router.IsHost {
			return true
		}
	}
	return false
}

// MemberAddrs returns the subnet's assigned interface addresses in ascending
// order — the ground-truth membership the evaluation layer scores collected
// subnets against.
func (s *Subnet) MemberAddrs() []ipv4.Addr {
	out := make([]ipv4.Addr, 0, len(s.Ifaces))
	for _, i := range s.Ifaces {
		out = append(out, i.Addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Subnet) String() string { return s.Prefix.String() }

// Topology is the static router-and-subnet graph plus its address indexes
// and routes. Build one with a Builder; a built topology is immutable and
// safe for concurrent readers. Its routes are a cache: each destination
// subnet's route table is built when the first probe heads for it and
// shared by every Network on the topology. Per-network state (the clock,
// IP-ID counters, random streams, rate-limit buckets) lives on the Network.
type Topology struct {
	Routers []*Router
	Subnets []*Subnet
	Hosts   []*Router // subset of Routers with IsHost set

	ifaceByAddr map[ipv4.Addr]*Iface
	hostByName  map[string]*Router
	// byPrefix holds Subnets in prefix order (ipv4.Prefix.Compare), the
	// index SubnetContaining and SubnetByPrefix search. Build rejects
	// overlapping subnets, so the order is one ipv4.OverlapRun needs.
	// Subnets keeps declaration order: subnet indices follow it.
	byPrefix []*Subnet

	// routes holds each subnet's route table, indexed by subnet idx; a nil
	// slot is a subnet no probe has headed for yet (see routesTo).
	routes []atomic.Pointer[routeTable]
	// routeMu serializes route builds. routeBuilds counts them; bfsQueue
	// and bfsSeen are the builds' scratch, indices and flags that pin
	// nothing, allocated by the first build.
	routeMu     sync.Mutex
	routeBuilds int
	bfsQueue    []int32
	bfsSeen     []bool
}

// IfaceByAddr returns the interface assigned addr, or nil if unassigned.
func (t *Topology) IfaceByAddr(addr ipv4.Addr) *Iface { return t.ifaceByAddr[addr] }

// SubnetContaining returns the subnet whose prefix covers addr, or nil.
// Subnets are disjoint, so at most one does.
func (t *Topology) SubnetContaining(addr ipv4.Addr) *Subnet {
	if lo, hi := ipv4.OverlapRun(t.byPrefix, ipv4.NewPrefix(addr, 32), subnetPrefix); lo < hi {
		return t.byPrefix[lo]
	}
	return nil
}

// SubnetByPrefix returns the subnet with exactly the given prefix, or nil.
func (t *Topology) SubnetByPrefix(p ipv4.Prefix) *Subnet {
	if s := t.SubnetContaining(p.Base()); s != nil && s.Prefix == p {
		return s
	}
	return nil
}

// subnetPrefix reads a subnet's prefix for ipv4.OverlapRun.
func subnetPrefix(s *Subnet) ipv4.Prefix { return s.Prefix }

// HostByName returns the named host, or nil.
func (t *Topology) HostByName(name string) *Router { return t.hostByName[name] }

// CoreSubnets returns the subnets of the topology excluding host access
// subnets (those with a host attached); these are the ground truth the
// evaluation compares collected subnets against.
func (t *Topology) CoreSubnets() []*Subnet {
	var out []*Subnet
	for _, s := range t.Subnets {
		if !s.HostAttached() {
			out = append(out, s)
		}
	}
	return out
}

// buildIndexes populates the lookup maps and adjacency lists. Called once by
// the Builder after validation.
func (t *Topology) buildIndexes() {
	t.ifaceByAddr = make(map[ipv4.Addr]*Iface)
	t.hostByName = make(map[string]*Router)
	for idx, r := range t.Routers {
		r.idx = idx
		if r.IsHost {
			t.hostByName[r.Name] = r
		}
		for _, i := range r.Ifaces {
			t.ifaceByAddr[i.Addr] = i
		}
	}
	for idx, s := range t.Subnets {
		s.idx = idx
	}
	t.routes = make([]atomic.Pointer[routeTable], len(t.Subnets))

	// Adjacency: every pair of distinct routers sharing a subnet is an edge,
	// one edge per (subnet, interface pair).
	for _, r := range t.Routers {
		r.edges = r.edges[:0]
	}
	for _, s := range t.Subnets {
		for _, a := range s.Ifaces {
			for _, b := range s.Ifaces {
				if a.Router == b.Router {
					continue
				}
				a.Router.edges = append(a.Router.edges, edge{
					to: b.Router, via: s, local: a, remote: b,
				})
			}
		}
	}
}
