package core

import (
	"fmt"

	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
)

// CheckpointSubnet is the serialized form of one collected Subnet, as the
// campaign checkpoint (internal/collect) journals it.
type CheckpointSubnet struct {
	Prefix      string   `json:"prefix"`
	Addrs       []string `json:"addrs"`
	Pivot       string   `json:"pivot"`
	PivotDist   int      `json:"pivot_dist"`
	ContraPivot string   `json:"contra_pivot,omitempty"`
	Ingress     string   `json:"ingress,omitempty"`
	TraceEntry  string   `json:"trace_entry,omitempty"`
	OnPath      bool     `json:"on_path,omitempty"`
	Stop        string   `json:"stop,omitempty"`
	Probes      uint64   `json:"probes,omitempty"`
	Confidence  float64  `json:"confidence,omitempty"`
	Degraded    bool     `json:"degraded,omitempty"`
}

// SnapshotSubnet serializes one collected subnet.
func SnapshotSubnet(sub *Subnet) CheckpointSubnet {
	cs := CheckpointSubnet{
		Prefix:     sub.Prefix.String(),
		Pivot:      sub.Pivot.String(),
		PivotDist:  sub.PivotDist,
		OnPath:     sub.OnPath,
		Stop:       string(sub.Stop),
		Probes:     sub.Probes,
		Confidence: sub.Confidence,
		Degraded:   sub.Degraded,
	}
	for _, a := range sub.Addrs {
		// The write-side mirror of Restore()'s membership validation: a
		// subnet must never checkpoint members outside its own prefix.
		invariant.Assertf(sub.Prefix.Contains(a),
			"core: checkpoint subnet %v holds stray member %v", sub.Prefix, a)
		cs.Addrs = append(cs.Addrs, a.String())
	}
	if !sub.ContraPivot.IsZero() {
		cs.ContraPivot = sub.ContraPivot.String()
	}
	if !sub.Ingress.IsZero() {
		cs.Ingress = sub.Ingress.String()
	}
	if !sub.TraceEntry.IsZero() {
		cs.TraceEntry = sub.TraceEntry.String()
	}
	return cs
}

// Restore converts a checkpointed subnet back to its in-memory form,
// validating prefixes, addresses, and membership.
func (cs CheckpointSubnet) Restore() (*Subnet, error) {
	prefix, err := ipv4.ParsePrefix(cs.Prefix)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint subnet: %w", err)
	}
	pivot, err := ipv4.ParseAddr(cs.Pivot)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint subnet %s: %w", cs.Prefix, err)
	}
	// Confidence is documented (0,1]. The field is omitempty, so a checkpoint
	// written before confidence tracking existed (or a fully-clean snapshot
	// round-tripped through tooling that drops zero fields) decodes as 0 —
	// normalize that to 1 ("fully answered") instead of restoring a subnet
	// that violates the contract. Values actually outside the range are
	// corruption, not legacy, and are rejected.
	conf := cs.Confidence
	if conf == 0 {
		conf = 1
	}
	if conf < 0 || conf > 1 {
		return nil, fmt.Errorf("core: checkpoint subnet %s: confidence %v outside (0,1]", cs.Prefix, cs.Confidence)
	}
	sub := &Subnet{
		Prefix:     prefix,
		Pivot:      pivot,
		PivotDist:  cs.PivotDist,
		OnPath:     cs.OnPath,
		Stop:       StopReason(cs.Stop),
		Probes:     cs.Probes,
		Confidence: conf,
		Degraded:   cs.Degraded,
	}
	for _, a := range cs.Addrs {
		addr, err := ipv4.ParseAddr(a)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint subnet %s: %w", cs.Prefix, err)
		}
		if !prefix.Contains(addr) {
			return nil, fmt.Errorf("core: checkpoint subnet %s: member %s outside prefix", cs.Prefix, a)
		}
		sub.Addrs = append(sub.Addrs, addr)
	}
	parseOpt := func(s string, dst *ipv4.Addr) error {
		if s == "" {
			return nil
		}
		a, err := ipv4.ParseAddr(s)
		if err != nil {
			return fmt.Errorf("core: checkpoint subnet %s: %w", cs.Prefix, err)
		}
		*dst = a
		return nil
	}
	if err := parseOpt(cs.ContraPivot, &sub.ContraPivot); err != nil {
		return nil, err
	}
	if err := parseOpt(cs.Ingress, &sub.Ingress); err != nil {
		return nil, err
	}
	if err := parseOpt(cs.TraceEntry, &sub.TraceEntry); err != nil {
		return nil, err
	}
	return sub, nil
}
