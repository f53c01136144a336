package netsim

import (
	"encoding/json"
	"fmt"
	"io"

	"tracenet/internal/ipv4"
)

// topologyJSON is the serialized form of a Topology. Interfaces are stored
// with their routers; subnets are reconstructed from the interface addresses
// and the declared prefixes.
type topologyJSON struct {
	Routers []routerJSON `json:"routers"`
	Subnets []subnetJSON `json:"subnets"`
}

type routerJSON struct {
	Name            string      `json:"name"`
	Host            bool        `json:"host,omitempty"`
	DirectPolicy    string      `json:"direct_policy,omitempty"`
	IndirectPolicy  string      `json:"indirect_policy,omitempty"`
	DefaultAddr     string      `json:"default_addr,omitempty"`
	DirectProtos    uint8       `json:"direct_protos"`
	IndirectProtos  uint8       `json:"indirect_protos"`
	EmitUnreachable bool        `json:"emit_unreachable,omitempty"`
	RRNonCompliant  bool        `json:"rr_noncompliant,omitempty"`
	ReplyLoss       float64     `json:"reply_loss,omitempty"`
	Ifaces          []ifaceJSON `json:"ifaces"`
}

type ifaceJSON struct {
	Addr         string `json:"addr"`
	Unresponsive bool   `json:"unresponsive,omitempty"`
}

type subnetJSON struct {
	Prefix       string `json:"prefix"`
	Unresponsive bool   `json:"unresponsive,omitempty"`
}

func policyName(p ResponsePolicy) string { return p.String() }

func policyFromName(s string) (ResponsePolicy, error) {
	switch s {
	case "", "probed":
		return PolicyProbed, nil
	case "nil":
		return PolicyNil, nil
	case "incoming":
		return PolicyIncoming, nil
	case "shortest-path":
		return PolicyShortestPath, nil
	case "default":
		return PolicyDefault, nil
	}
	return 0, fmt.Errorf("netsim: unknown response policy %q", s)
}

// WriteJSON serializes the topology.
func (t *Topology) WriteJSON(w io.Writer) error {
	out := topologyJSON{}
	for _, s := range t.Subnets {
		out.Subnets = append(out.Subnets, subnetJSON{
			Prefix:       s.Prefix.String(),
			Unresponsive: s.Unresponsive,
		})
	}
	for _, r := range t.Routers {
		rj := routerJSON{
			Name:            r.Name,
			Host:            r.IsHost,
			DirectPolicy:    policyName(r.DirectPolicy),
			IndirectPolicy:  policyName(r.IndirectPolicy),
			DirectProtos:    uint8(r.DirectProtos),
			IndirectProtos:  uint8(r.IndirectProtos),
			EmitUnreachable: r.EmitUnreachable,
			RRNonCompliant:  !r.RRCompliant,
			ReplyLoss:       r.ReplyLoss,
		}
		if r.DefaultIface != nil {
			rj.DefaultAddr = r.DefaultIface.Addr.String()
		}
		for _, i := range r.Ifaces {
			rj.Ifaces = append(rj.Ifaces, ifaceJSON{
				Addr:         i.Addr.String(),
				Unresponsive: !i.Responsive,
			})
		}
		out.Routers = append(out.Routers, rj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes and validates a topology.
func ReadJSON(r io.Reader) (*Topology, error) {
	var in topologyJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("netsim: decoding topology: %w", err)
	}
	b := NewBuilder()
	for _, sj := range in.Subnets {
		p, err := ipv4.ParsePrefix(sj.Prefix)
		if err != nil {
			return nil, fmt.Errorf("netsim: subnet %q: %w", sj.Prefix, err)
		}
		b.SubnetP(p).Unresponsive = sj.Unresponsive
	}
	// Check the declared subnets before attaching any interface: with
	// overlapping subnets an address has no one subnet to attach to.
	byPrefix, err := prefixOrder(b.topo.Subnets)
	if err != nil {
		return nil, err
	}
	b.topo.byPrefix = byPrefix
	for _, rj := range in.Routers {
		var r *Router
		if rj.Host {
			r = b.Host(rj.Name)
		} else {
			r = b.Router(rj.Name)
		}
		dp, err := policyFromName(rj.DirectPolicy)
		if err != nil {
			return nil, err
		}
		ip, err := policyFromName(rj.IndirectPolicy)
		if err != nil {
			return nil, err
		}
		if rj.IndirectPolicy == "" {
			ip = PolicyIncoming
		}
		r.DirectPolicy, r.IndirectPolicy = dp, ip
		r.DirectProtos = ProtoMask(rj.DirectProtos)
		r.IndirectProtos = ProtoMask(rj.IndirectProtos)
		if rj.DirectProtos == 0 {
			r.DirectProtos = ProtoMaskAll
		}
		if rj.IndirectProtos == 0 {
			r.IndirectProtos = ProtoMaskAll
		}
		r.EmitUnreachable = rj.EmitUnreachable
		r.RRCompliant = !rj.RRNonCompliant
		r.ReplyLoss = rj.ReplyLoss
		for _, ij := range rj.Ifaces {
			a, err := ipv4.ParseAddr(ij.Addr)
			if err != nil {
				return nil, fmt.Errorf("netsim: router %s: %w", rj.Name, err)
			}
			s := b.topo.SubnetContaining(a)
			if s == nil {
				return nil, fmt.Errorf("netsim: address %v not covered by any subnet", a)
			}
			iface := b.AttachA(r, s, a)
			iface.Responsive = !ij.Unresponsive
		}
		if rj.DefaultAddr != "" {
			a, err := ipv4.ParseAddr(rj.DefaultAddr)
			if err != nil {
				return nil, fmt.Errorf("netsim: router %s default: %w", rj.Name, err)
			}
			if i := r.IfaceWithAddr(a); i != nil {
				r.DefaultIface = i
			}
		}
	}
	return b.Build()
}
