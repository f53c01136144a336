package netsim

import (
	"fmt"
	"slices"

	"tracenet/internal/ipv4"
)

// Builder assembles a Topology incrementally and validates it on Build.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	topo   *Topology
	errs   []error
	ifaces map[ipv4.Addr]*Iface
	names  map[string]bool
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{
		topo:   &Topology{},
		ifaces: make(map[ipv4.Addr]*Iface),
		names:  make(map[string]bool),
	}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Router adds a forwarding router with default response configuration:
// probed-interface for direct probes, incoming-interface for indirect probes,
// responsive to all protocols.
func (b *Builder) Router(name string) *Router {
	if b.names[name] {
		b.errorf("netsim: duplicate node name %q", name)
	}
	b.names[name] = true
	r := &Router{
		Name:           name,
		DirectPolicy:   PolicyProbed,
		IndirectPolicy: PolicyIncoming,
		DirectProtos:   ProtoMaskAll,
		IndirectProtos: ProtoMaskAll,
		RRCompliant:    true,
	}
	b.topo.Routers = append(b.topo.Routers, r)
	return r
}

// Host adds an end system: a single-interface node that answers direct probes
// but never forwards. Attach it to exactly one subnet.
func (b *Builder) Host(name string) *Router {
	r := b.Router(name)
	r.IsHost = true
	b.topo.Hosts = append(b.topo.Hosts, r)
	return r
}

// Subnet declares a LAN with the given CIDR prefix.
func (b *Builder) Subnet(cidr string) *Subnet {
	p, err := ipv4.ParsePrefix(cidr)
	if err != nil {
		b.errorf("netsim: %v", err)
		p = ipv4.NewPrefix(0, 32)
	}
	return b.SubnetP(p)
}

// SubnetP declares a LAN with the given parsed prefix. Build rejects a
// prefix declared twice, as it rejects any overlap.
func (b *Builder) SubnetP(p ipv4.Prefix) *Subnet {
	s := &Subnet{Prefix: p}
	b.topo.Subnets = append(b.topo.Subnets, s)
	return s
}

// Attach gives router r an interface with address addr on subnet s.
func (b *Builder) Attach(r *Router, s *Subnet, addr string) *Iface {
	a, err := ipv4.ParseAddr(addr)
	if err != nil {
		b.errorf("netsim: %v", err)
		return &Iface{Router: r, Subnet: s, Responsive: true}
	}
	return b.AttachA(r, s, a)
}

// AttachA gives router r an interface with the parsed address a on subnet s.
func (b *Builder) AttachA(r *Router, s *Subnet, a ipv4.Addr) *Iface {
	if !s.Prefix.Contains(a) {
		b.errorf("netsim: address %v outside subnet %v", a, s.Prefix)
	}
	if s.Prefix.IsBoundary(a) {
		b.errorf("netsim: address %v is a boundary address of %v", a, s.Prefix)
	}
	if _, dup := b.ifaces[a]; dup {
		b.errorf("netsim: duplicate address %v", a)
	}
	if r.IsHost && len(r.Ifaces) > 0 {
		b.errorf("netsim: host %s may have only one interface", r.Name)
	}
	if prev := r.IfaceOn(s); prev != nil {
		b.errorf("netsim: router %s already attached to %v", r.Name, s.Prefix)
	}
	i := &Iface{Addr: a, Router: r, Subnet: s, Responsive: true}
	b.ifaces[a] = i
	r.Ifaces = append(r.Ifaces, i)
	s.Ifaces = append(s.Ifaces, i)
	if r.DefaultIface == nil {
		r.DefaultIface = i
	}
	return i
}

// AttachNext attaches r to s using the lowest unassigned non-boundary address
// of the subnet, or records an error if the subnet is full.
func (b *Builder) AttachNext(r *Router, s *Subnet) *Iface {
	var free ipv4.Addr
	found := false
	s.Prefix.Addrs(func(a ipv4.Addr) bool {
		if s.Prefix.IsBoundary(a) {
			return true
		}
		if _, used := b.ifaces[a]; !used {
			free, found = a, true
			return false
		}
		return true
	})
	if !found {
		b.errorf("netsim: subnet %v full", s.Prefix)
		return &Iface{Router: r, Subnet: s, Responsive: true}
	}
	return b.AttachA(r, s, free)
}

// Build validates the assembled topology and returns it. All accumulated
// construction errors are reported together.
func (b *Builder) Build() (*Topology, error) {
	for _, r := range b.topo.Routers {
		if len(r.Ifaces) == 0 {
			b.errorf("netsim: node %s has no interfaces", r.Name)
		}
	}
	for _, s := range b.topo.Subnets {
		if len(s.Ifaces) == 0 {
			b.errorf("netsim: subnet %v has no interfaces", s.Prefix)
		}
	}
	var err error
	if b.topo.byPrefix, err = prefixOrder(b.topo.Subnets); err != nil {
		b.errs = append(b.errs, err)
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("netsim: invalid topology: %w (%d errors total)", b.errs[0], len(b.errs))
	}
	b.topo.buildIndexes()
	return b.topo, nil
}

// prefixOrder returns a copy of subnets sorted by prefix
// (ipv4.Prefix.Compare), or an error naming the first overlapping pair.
// Sorted prefixes are pairwise disjoint exactly when every neighbouring pair
// is: a prefix that overlaps a later one covers it and everything between.
func prefixOrder(subnets []*Subnet) ([]*Subnet, error) {
	sorted := make([]*Subnet, len(subnets))
	copy(sorted, subnets)
	slices.SortFunc(sorted, func(a, b *Subnet) int { return a.Prefix.Compare(b.Prefix) })
	for i := 1; i < len(sorted); i++ {
		if p, q := sorted[i-1].Prefix, sorted[i].Prefix; p.Overlaps(q) {
			return nil, fmt.Errorf("netsim: overlapping subnets %v and %v", p, q)
		}
	}
	return sorted, nil
}

// MustBuild is Build panicking on error, for fixtures and generators whose
// inputs are known valid.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
