package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// CheckpointVersion is the campaign checkpoint schema version. Version 2
// journals one row per completed target; version 1 checkpoints (bare target
// and done lists) are rejected, not migrated.
const CheckpointVersion = 2

// ErrCheckpointMismatch reports a resume checkpoint written by a different
// campaign: its campaign_id differs from a non-empty Config.ID, or a row
// names a destination outside Config.Targets. Resuming from it would render
// another campaign's outcomes as this one's.
var ErrCheckpointMismatch = errors.New("collect: checkpoint does not match the campaign")

// Checkpoint is a campaign's resume journal: one row per completed target
// and every distinct subnet collected. A campaign resumed from its
// checkpoint restores the rows instead of re-tracing those targets, and
// never re-explores the checkpointed subnets' address space (they seed the
// cache's frozen member tier), so an interrupted run loses at most the
// in-flight targets' probes.
type Checkpoint struct {
	Version int `json:"version"`
	// CampaignID identifies which campaign wrote the checkpoint (see
	// Config.ID; omitted for anonymous campaigns).
	CampaignID string `json:"campaign_id,omitempty"`
	// Rows journals the completed targets, in input order.
	Rows []CheckpointRow `json:"rows,omitempty"`
	// Subnets are the distinct collected subnets, deterministically ordered.
	Subnets []core.CheckpointSubnet `json:"subnets,omitempty"`
}

// CheckpointRow is one completed target's journaled outcome: the
// schedule-independent fields of its TargetResult, which a resumed campaign
// restores so its report knows what the target found.
type CheckpointRow struct {
	Dst         string `json:"dst"`
	Reached     bool   `json:"reached,omitempty"`
	Hops        int    `json:"hops,omitempty"`
	Subnets     int    `json:"subnets,omitempty"`
	TraceProbes uint64 `json:"trace_probes,omitempty"`
}

// Checkpoint snapshots the campaign for a later resume. Deterministic: the
// rows follow input order and the subnet list is sorted by prefix and pivot,
// so the serialized bytes are independent of worker scheduling. Completed
// targets are those traced to completion in this run or restored from the
// checkpoint it resumed.
func (r *Report) Checkpoint() *Checkpoint {
	n := 0
	for i := range r.Targets {
		if completed(r.Targets[i].Status) {
			n++
		}
	}
	cp := &Checkpoint{
		Version:    CheckpointVersion,
		CampaignID: r.ID,
		Rows:       make([]CheckpointRow, 0, n),
		Subnets:    make([]core.CheckpointSubnet, 0, len(r.subnets)),
	}
	for i := range r.Targets {
		t := &r.Targets[i]
		if completed(t.Status) {
			cp.Rows = append(cp.Rows, CheckpointRow{
				Dst:         t.Dst.String(),
				Reached:     t.Reached,
				Hops:        t.Hops,
				Subnets:     t.Subnets,
				TraceProbes: t.TraceProbes,
			})
		}
	}
	for _, sub := range r.subnets {
		cp.Subnets = append(cp.Subnets, core.SnapshotSubnet(sub))
	}
	return cp
}

// completed reports whether a target's outcome belongs in the journal.
func completed(st TargetStatus) bool {
	return st == StatusDone || st == StatusResumed
}

// WriteCheckpoint serializes a campaign checkpoint as compact JSON, one
// line: a 10,000-target journal stays a few hundred kilobytes.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	return json.NewEncoder(w).Encode(cp)
}

// ReadCheckpoint decodes and validates a JSON campaign checkpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("collect: checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("collect: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// restore checks that the checkpoint belongs to the campaign cfg describes
// and converts it back to in-memory form: the subnets (for the cache's
// frozen tier) and the journaled rows keyed by destination.
func (cp *Checkpoint) restore(cfg *Config) ([]*core.Subnet, map[ipv4.Addr]*CheckpointRow, error) {
	if cp.Version != CheckpointVersion {
		return nil, nil, fmt.Errorf("collect: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cfg.ID != "" && cp.CampaignID != cfg.ID {
		return nil, nil, fmt.Errorf("%w: written by campaign %q, resuming %q", ErrCheckpointMismatch, cp.CampaignID, cfg.ID)
	}
	targets := make(map[ipv4.Addr]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		targets[t] = true
	}
	rows := make(map[ipv4.Addr]*CheckpointRow, len(cp.Rows))
	for i := range cp.Rows {
		a, err := ipv4.ParseAddr(cp.Rows[i].Dst)
		if err != nil {
			return nil, nil, fmt.Errorf("collect: checkpoint row: %w", err)
		}
		if !targets[a] {
			return nil, nil, fmt.Errorf("%w: row %v is not a campaign target", ErrCheckpointMismatch, a)
		}
		rows[a] = &cp.Rows[i]
	}
	var subs []*core.Subnet
	for _, cs := range cp.Subnets {
		sub, err := cs.Restore()
		if err != nil {
			return nil, nil, err
		}
		subs = append(subs, sub)
	}
	return subs, rows, nil
}
