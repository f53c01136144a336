package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracenet/internal/collect"
)

// The spool directory is the daemon's journal: every accepted campaign
// leaves one record, and completed or interrupted campaigns add their
// artifacts. File names are derived only from daemon-generated campaign
// IDs, never from client input.
//
//	<id>.state.json       the campaign's record: lifecycle state, the
//	                      accepted spec, and the scheduler clock when written
//	<id>.checkpoint.json  collect checkpoint, schema collect.CheckpointVersion
//	                      (interrupted and final): the campaign's one resume
//	                      journal, each completed target's hop path included
//	<id>.report.txt       the byte-stable final report (Report.WriteTo)
//	<id>.eval.json        ground-truth evaluation (when the spec asks)
//
// A record is written when its campaign is accepted (a submission or a
// rescan's enrolment) and when it lands (done, failed, cancelled,
// interrupted). Writes are atomic (temp file + rename) so a SIGTERM racing a
// write never leaves a half-journaled campaign for the next start to trip
// over. Replay trusts nothing it reads back: a record's spec is decoded and
// validated as strictly as a submission, a checkpoint is validated by
// collect.ReadCheckpoint, and a file that fails fails Start with
// ErrCorruptSpool naming it.

// Campaign lifecycle states as persisted and served by the API.
const (
	stateQueued      = "queued"
	stateRunning     = "running"
	stateDone        = "done"
	stateFailed      = "failed"
	stateCancelled   = "cancelled"
	stateInterrupted = "interrupted"
)

// record is one campaign's journal entry, <id>.state.json: everything
// replay needs to register or re-queue the campaign.
type record struct {
	ID     string `json:"id"`
	Seq    uint64 `json:"seq"` // admission order, the FIFO key within a priority
	Tenant string `json:"tenant"`
	Status string `json:"status"`
	// Rescan is the re-scan generation (0 = the original submission);
	// NotBefore its freshness deadline in scheduler ticks (0 = at once).
	Rescan    int    `json:"rescan,omitempty"`
	NotBefore uint64 `json:"not_before,omitempty"`
	Error     string `json:"error,omitempty"`
	// Spec is the accepted spec as WriteSpec encoded it. The record is
	// written compact, so the spec it holds is never larger than the form
	// Submit bounded, and replay reads it back through ReadSpec.
	Spec json.RawMessage `json:"spec"`
	// Clock is the scheduler clock when the record was written.
	Clock uint64 `json:"clock"`
}

// spool wraps the directory with atomic read/write helpers.
type spool struct {
	dir string
}

func (s spool) path(name string) string { return filepath.Join(s.dir, name) }

// writeFile atomically replaces name with data.
func (s spool) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "."+name+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), s.path(name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeRecord atomically writes rec as one line of compact JSON.
func (s spool) writeRecord(rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.writeFile(rec.ID+".state.json", append(data, '\n'))
}

// readRecord decodes one campaign record and its spec. The spec is read and
// validated exactly as a submission is: a record edited or corrupted into
// something POST would refuse (an unknown protocol, a file-path topology)
// is never run.
func (s spool) readRecord(name string) (*campaignState, error) {
	data, err := os.ReadFile(s.path(name))
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	if rec.ID == "" || rec.ID+".state.json" != name {
		return nil, fmt.Errorf("%w %s: record names campaign %q", ErrCorruptSpool, name, rec.ID)
	}
	sp, err := ReadSpec(bytes.NewReader(rec.Spec))
	if err == nil {
		err = sp.Validate()
	}
	if err == nil && sp.Tenant != rec.Tenant {
		err = fmt.Errorf("record tenant %q, spec tenant %q", rec.Tenant, sp.Tenant)
	}
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	return &campaignState{record: rec, spec: sp}, nil
}

// readCheckpoint decodes and validates a journaled campaign checkpoint.
func (s spool) readCheckpoint(name string) (*collect.Checkpoint, error) {
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := collect.ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	return cp, nil
}

// exists reports whether name is present in the spool.
func (s spool) exists(name string) bool {
	_, err := os.Stat(s.path(name))
	return err == nil
}

// loadRecords reads every campaign record in the spool, ordered by
// admission sequence (ties — impossible in a well-formed spool — break by
// ID) so replay re-admits campaigns in their original order.
func (s spool) loadRecords() ([]*campaignState, error) {
	names, err := filepath.Glob(s.path("*.state.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var states []*campaignState
	for _, path := range names {
		cs, err := s.readRecord(filepath.Base(path))
		if err != nil {
			return nil, err
		}
		states = append(states, cs)
	}
	sort.SliceStable(states, func(i, j int) bool {
		if states[i].Seq != states[j].Seq {
			return states[i].Seq < states[j].Seq
		}
		return states[i].ID < states[j].ID
	})
	return states, nil
}

// baseID strips any re-scan suffix ("c0003.r2" -> "c0003").
func baseID(id string) string {
	if i := strings.Index(id, "."); i >= 0 {
		return id[:i]
	}
	return id
}
