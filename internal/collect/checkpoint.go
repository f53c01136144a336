package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"tracenet/internal/core"
	"tracenet/internal/invariant"
	"tracenet/internal/ipv4"
	"tracenet/internal/probe"
)

// CheckpointVersion is the campaign checkpoint schema version. Version 4
// journals each completed target's hop path, the spec digest, and the probe
// memo of an unfinished campaign; version 1 (bare target and done lists),
// version 2 (per-row counts) and version 3 (no digest or memo) checkpoints
// are rejected, not migrated.
const CheckpointVersion = 4

// ErrCheckpointMismatch reports a resume checkpoint written by a different
// campaign: its campaign_id differs from a non-empty Config.ID, its digest
// from Config.Digest, or a row names a destination outside Config.Targets.
// Resuming from it would render another campaign's outcomes as this one's.
var ErrCheckpointMismatch = errors.New("collect: checkpoint does not match the campaign")

// Checkpoint is a campaign's resume journal: one row per completed target,
// carrying the target's hop path, the subnets those paths reference, and —
// while some target is unfinished — the campaign's probe memo. A campaign
// resumed from its checkpoint rebuilds each journaled row instead of
// re-tracing the target, folds it into the merged report like a traced row,
// serves the journaled hop contexts from the shared cache and the journaled
// probes from the memo, so the resumed campaign renders what the
// uninterrupted one renders and spends what it spends, and an interrupted
// run loses at most the in-flight targets' probes.
type Checkpoint struct {
	Version int `json:"version"`
	// CampaignID identifies which campaign wrote the checkpoint (see
	// Config.ID; omitted for anonymous campaigns).
	CampaignID string `json:"campaign_id,omitempty"`
	// Digest is the Config.Digest of the campaign that wrote it.
	Digest string `json:"digest,omitempty"`
	// Rows journals the completed targets, in input order.
	Rows []CheckpointRow `json:"rows,omitempty"`
	// Subnets are the distinct subnets the rows' hops reference, in the
	// report's order (see Report.Subnets); a hop names its subnet by index.
	Subnets []core.CheckpointSubnet `json:"subnets,omitempty"`
	// Memo journals the campaign's probe memo, sorted by key, when some
	// target is not journaled done; a complete campaign's checkpoint has
	// none, as nothing is left to probe.
	Memo *probe.MemoJournal `json:"memo,omitempty"`
}

// CheckpointRow is one completed target's journaled outcome: whether the
// trace reached the destination, its trace-collection packet count, and its
// hop path as three parallel arrays with one element per hop, hop i having
// been probed at TTL i+1. The path is every core.Hop field but TTL (the
// position) and Shared (which worker grew the subnet, never rendered). The
// path keys differ from version 2's per-row counts, so a version 2 file
// decodes far enough to be refused by its version.
type CheckpointRow struct {
	Dst         string `json:"dst"`
	Reached     bool   `json:"reached,omitempty"`
	TraceProbes uint64 `json:"trace_probes,omitempty"`
	// Addrs is each hop's address as a 32-bit integer; 0 is an anonymous hop.
	Addrs []uint32 `json:"path_addrs,omitempty"`
	// Subnets is the index into Checkpoint.Subnets of the subnet each hop
	// grew or reused; -1 when the hop has none.
	Subnets []int32 `json:"path_subnets,omitempty"`
	// Marks is each hop's probe.Kind in the low bits (markKind) plus the
	// markRevisited and markDegraded flags.
	Marks []uint16 `json:"path_marks,omitempty"`
}

// Hop marks, as CheckpointRow.Marks packs them.
const (
	markKind      = 0x7
	markRevisited = 0x8
	markDegraded  = 0x10
)

// Checkpoint snapshots the campaign for a later resume. Deterministic: the
// rows follow input order, the subnets the report's order and the memo its
// keys, so the serialized bytes are independent of worker scheduling.
// Completed targets are those traced to completion in this run or restored
// from the checkpoint it resumed.
func (r *Report) Checkpoint() *Checkpoint {
	// Number the subnets the journaled paths reference in report order.
	index := make(map[*core.Subnet]int32, len(r.subnets))
	rows, hops := 0, 0
	for i := range r.Targets {
		if t := &r.Targets[i]; completed(t.Status) {
			rows++
			hops += len(t.Result.Hops)
			for _, h := range t.Result.Hops {
				if h.Subnet != nil {
					index[h.Subnet] = -1
				}
			}
		}
	}
	cp := &Checkpoint{
		Version:    CheckpointVersion,
		CampaignID: r.ID,
		Digest:     r.digest,
		Rows:       make([]CheckpointRow, 0, rows),
		Subnets:    make([]core.CheckpointSubnet, 0, len(index)),
	}
	if r.memo != nil {
		cp.Memo = r.memo.Journal()
	}
	for _, sub := range r.subnets {
		if _, ok := index[sub]; ok {
			index[sub] = int32(len(cp.Subnets))
			cp.Subnets = append(cp.Subnets, core.SnapshotSubnet(sub))
		}
	}

	// Every row's path is a window of one backing array per column.
	addrs := make([]uint32, hops)
	subnets := make([]int32, hops)
	marks := make([]uint16, hops)
	for i := range r.Targets {
		t := &r.Targets[i]
		if !completed(t.Status) {
			continue
		}
		res := t.Result
		n := len(res.Hops)
		row := CheckpointRow{
			Dst:         t.Dst.String(),
			Reached:     res.Reached,
			TraceProbes: res.TraceProbes,
			Addrs:       addrs[:n:n],
			Subnets:     subnets[:n:n],
			Marks:       marks[:n:n],
		}
		addrs, subnets, marks = addrs[n:], subnets[n:], marks[n:]
		for j, h := range res.Hops {
			row.Addrs[j] = uint32(h.Addr)
			row.Subnets[j] = -1
			if h.Subnet != nil {
				row.Subnets[j] = index[h.Subnet]
				invariant.Assertf(row.Subnets[j] >= 0,
					"collect: row %v hop %d subnet %v missing from the report", t.Dst, h.TTL, h.Subnet.Prefix)
			}
			m := uint16(h.Kind) & markKind
			if h.Revisited {
				m |= markRevisited
			}
			if h.Degraded {
				m |= markDegraded
			}
			row.Marks[j] = m
		}
		cp.Rows = append(cp.Rows, row)
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

// ReadCheckpoint decodes and validates a JSON campaign checkpoint: the
// version, every subnet, every row's destination (unique) and path, and the
// memo journal. Only the match against the resuming campaign is left to
// Run.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("collect: checkpoint: %w", err)
	}
	if _, err := cp.restore(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// restore validates the checkpoint and rebuilds each journaled row, in
// journal order, as the core.Result its trace returned: the hops, Subnets
// derived from them (the distinct hop subnets in hop order), Reached and
// TraceProbes. The counts of work a resumed run did not do on the row —
// PositionProbes, ExploreProbes, DefenseProbes, Recovered, Quarantined —
// stay zero.
func (cp *Checkpoint) restore() ([]*core.Result, error) {
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("collect: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Memo != nil {
		if err := cp.Memo.Validate(); err != nil {
			return nil, fmt.Errorf("collect: checkpoint: %w", err)
		}
	}
	subs := make([]*core.Subnet, len(cp.Subnets))
	for i, cs := range cp.Subnets {
		sub, err := cs.Restore()
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	rows := make([]*core.Result, len(cp.Rows))
	seen := make(map[ipv4.Addr]bool, len(cp.Rows))
	for i := range cp.Rows {
		row := &cp.Rows[i]
		dst, err := ipv4.ParseAddr(row.Dst)
		if err != nil {
			return nil, fmt.Errorf("collect: checkpoint row: %w", err)
		}
		if seen[dst] {
			return nil, fmt.Errorf("collect: checkpoint row %v journaled twice", dst)
		}
		seen[dst] = true
		if rows[i], err = row.result(dst, subs); err != nil {
			return nil, fmt.Errorf("collect: checkpoint row %v: %w", dst, err)
		}
	}
	return rows, nil
}

// journal validates cfg.Resume and checks that it belongs to the campaign
// cfg describes, returning its rebuilt rows by destination (nil without a
// resume).
func (cfg *Config) journal() (map[ipv4.Addr]*core.Result, error) {
	cp := cfg.Resume
	if cp == nil {
		return nil, nil
	}
	rows, err := cp.restore()
	if err != nil {
		return nil, err
	}
	if cfg.ID != "" && cp.CampaignID != cfg.ID {
		return nil, fmt.Errorf("%w: written by campaign %q, resuming %q", ErrCheckpointMismatch, cp.CampaignID, cfg.ID)
	}
	if cp.Digest != cfg.Digest {
		return nil, fmt.Errorf("%w: written under spec digest %q, resuming under %q", ErrCheckpointMismatch, cp.Digest, cfg.Digest)
	}
	targets := make(map[ipv4.Addr]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		targets[t] = true
	}
	byDst := make(map[ipv4.Addr]*core.Result, len(rows))
	for _, res := range rows {
		if !targets[res.Dst] {
			return nil, fmt.Errorf("%w: row %v is not a campaign target", ErrCheckpointMismatch, res.Dst)
		}
		byDst[res.Dst] = res
	}
	return byDst, nil
}

// result rebuilds one row's path over the restored subnets.
func (row *CheckpointRow) result(dst ipv4.Addr, subs []*core.Subnet) (*core.Result, error) {
	n := len(row.Addrs)
	if len(row.Subnets) != n || len(row.Marks) != n {
		return nil, fmt.Errorf("path of %d addrs, %d subnets, %d marks", n, len(row.Subnets), len(row.Marks))
	}
	res := &core.Result{Dst: dst, Reached: row.Reached, TraceProbes: row.TraceProbes, Hops: make([]core.Hop, n)}
	for i := range res.Hops {
		m := row.Marks[i]
		// TCPReset is the last probe.Kind.
		if m&^(markKind|markRevisited|markDegraded) != 0 || probe.Kind(m&markKind) > probe.TCPReset {
			return nil, fmt.Errorf("hop %d: marks %#x out of range", i+1, m)
		}
		h := core.Hop{
			TTL:       i + 1,
			Addr:      ipv4.Addr(row.Addrs[i]),
			Kind:      probe.Kind(m & markKind),
			Revisited: m&markRevisited != 0,
			Degraded:  m&markDegraded != 0,
		}
		if idx := row.Subnets[i]; idx != -1 {
			if idx < 0 || int(idx) >= len(subs) {
				return nil, fmt.Errorf("hop %d: subnet index %d outside the %d checkpoint subnets", i+1, idx, len(subs))
			}
			h.Subnet = subs[idx]
			if !slices.Contains(res.Subnets, h.Subnet) {
				res.Subnets = append(res.Subnets, h.Subnet)
			}
		}
		res.Hops[i] = h
	}
	return res, nil
}
