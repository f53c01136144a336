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
// leaves a spec file and a state file, and completed or interrupted
// campaigns add their artifacts. File names are derived only from
// daemon-generated campaign IDs, never from client input.
//
//	<id>.spec.json        the accepted submission, canonical encoding
//	<id>.state.json       lifecycle state only (queue position, status)
//	<id>.checkpoint.json  collect checkpoint, schema collect.CheckpointVersion
//	                      (interrupted and final): the campaign's one resume
//	                      journal, each completed target's hop path included
//	<id>.report.txt       the byte-stable final report (Report.WriteTo)
//	<id>.eval.json        ground-truth evaluation (when the spec asks)
//	tracenetd.json        daemon-level state: scheduler clock, next sequence
//
// Writes are atomic (temp file + rename) so a SIGTERM racing a write never
// leaves a half-journaled campaign for the next start to trip over. Replay
// trusts nothing it reads back: a spec is decoded and validated as strictly
// as a submission, a checkpoint is validated by collect.ReadCheckpoint,
// every other file must decode, and a file that fails fails Start with
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

// State is one campaign's persisted lifecycle record.
type State struct {
	ID       string `json:"id"`
	Seq      uint64 `json:"seq"`
	Tenant   string `json:"tenant"`
	Status   string `json:"status"`
	Priority int    `json:"priority,omitempty"`
	// Rescan is the re-scan generation; NotBefore its freshness deadline in
	// scheduler ticks.
	Rescan    int    `json:"rescan,omitempty"`
	NotBefore uint64 `json:"not_before,omitempty"`
	Error     string `json:"error,omitempty"`
}

// daemonState is the spool's daemon-level record, persisted so the
// scheduler clock and ID sequence survive restarts (freshness deadlines are
// measured on that clock).
type daemonState struct {
	Clock   uint64 `json:"clock"`
	NextSeq uint64 `json:"next_seq"`
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

// writeJSON atomically writes v as indented JSON.
func (s spool) writeJSON(name string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return s.writeFile(name, buf.Bytes())
}

// readJSON decodes name into v.
func (s spool) readJSON(name string, v any) error {
	data, err := os.ReadFile(s.path(name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	return nil
}

// readSpec decodes and validates a journaled spec exactly as a submission
// is: a spool file edited or corrupted into something POST would refuse
// (an unknown protocol, a file-path topology) is never run.
func (s spool) readSpec(name string) (*Spec, error) {
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	defer f.Close()
	sp, err := ReadSpec(f)
	if err == nil {
		err = sp.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrCorruptSpool, name, err)
	}
	return sp, nil
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

// loadStates reads every campaign state file in the spool, ordered by
// admission sequence (ties — impossible in a well-formed spool — break by
// ID) so replay re-admits campaigns in their original order.
func (s spool) loadStates() ([]*State, error) {
	names, err := filepath.Glob(s.path("*.state.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var states []*State
	for _, path := range names {
		name := filepath.Base(path)
		var st State
		if err := s.readJSON(name, &st); err != nil {
			return nil, err
		}
		if st.ID == "" || st.ID+".state.json" != name {
			return nil, fmt.Errorf("%w %s: state names campaign %q", ErrCorruptSpool, name, st.ID)
		}
		states = append(states, &st)
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
