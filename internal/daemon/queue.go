package daemon

import "tracenet/internal/collect"

// queueEntry is one campaign waiting to run.
type queueEntry struct {
	id       string
	seq      uint64 // admission order, the FIFO key within a priority
	priority int
	tenant   *tenantState
	spec     *Spec
	// notBefore is the freshness deadline in scheduler ticks: the entry is
	// ineligible until the daemon clock reaches it (0 = ready immediately).
	// Re-scan generations are deferred this way.
	notBefore uint64
	// resume carries an interrupted campaign's checkpoint back into its
	// resumed run: its rows restore the completed targets' traces, and
	// their hop contexts seed the shared cache.
	resume *collect.Checkpoint
	// rescan is the re-scan generation (0 = the original submission).
	rescan int
}

// queue is the scheduler's pending set. It is a plain slice scanned
// linearly: selection must be deterministic and the pending set is small,
// so ordering logic beats heap bookkeeping. Not self-locking — the daemon's
// mutex guards it.
type queue struct {
	entries []*queueEntry
}

func (q *queue) push(e *queueEntry) {
	q.entries = append(q.entries, e)
}

func (q *queue) len() int { return len(q.entries) }

// pop removes and returns the next runnable entry at tick now: among
// entries whose freshness deadline has passed and whose tenant has a free
// concurrency slot, the highest priority wins and ties break FIFO by
// admission sequence. Returns nil when nothing is runnable.
func (q *queue) pop(now uint64, eligible func(*tenantState) bool) *queueEntry {
	best := -1
	for i, e := range q.entries {
		if e.notBefore > now {
			continue
		}
		if eligible != nil && !eligible(e.tenant) {
			continue
		}
		if best < 0 || e.priority > q.entries[best].priority ||
			(e.priority == q.entries[best].priority && e.seq < q.entries[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.removeAt(best)
}

// remove extracts the entry with the given campaign ID, or nil.
func (q *queue) remove(id string) *queueEntry {
	for i, e := range q.entries {
		if e.id == id {
			return q.removeAt(i)
		}
	}
	return nil
}

// removeAt deletes and returns entries[i], zeroing the vacated tail slot: the
// compacting copy leaves the last element duplicated in the slice's spare
// capacity, and a long-lived daemon queue that merely truncated would keep
// that *queueEntry — and its checkpoint, journal rows, and Spec — reachable
// until the slot is overwritten by a future push.
func (q *queue) removeAt(i int) *queueEntry {
	e := q.entries[i]
	last := len(q.entries) - 1
	copy(q.entries[i:], q.entries[i+1:])
	q.entries[last] = nil
	q.entries = q.entries[:last]
	return e
}
