package daemon

// queue is the scheduler's pending set: the records of the campaigns
// waiting to run. It is a plain slice scanned linearly: selection must be
// deterministic and the pending set is small, so ordering logic beats heap
// bookkeeping. Not self-locking — the daemon's mutex guards it and the
// fields of the records it reads.
type queue struct {
	entries []*campaignState
}

func (q *queue) push(cs *campaignState) {
	q.entries = append(q.entries, cs)
}

func (q *queue) len() int { return len(q.entries) }

// pop removes and returns the next runnable campaign at tick now: among
// campaigns whose freshness deadline has passed and whose tenant has a free
// concurrency slot, the highest priority wins and ties break FIFO by
// admission sequence. Returns nil when nothing is runnable.
func (q *queue) pop(now uint64, eligible func(*tenantState) bool) *campaignState {
	best := -1
	for i, cs := range q.entries {
		if cs.NotBefore > now {
			continue
		}
		if eligible != nil && !eligible(cs.tenant) {
			continue
		}
		if best < 0 || cs.spec.Priority > q.entries[best].spec.Priority ||
			(cs.spec.Priority == q.entries[best].spec.Priority && cs.Seq < q.entries[best].Seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.removeAt(best)
}

// earliest returns the earliest freshness deadline among the queued
// campaigns (0 when the queue is empty).
func (q *queue) earliest() uint64 {
	var at uint64
	for i, cs := range q.entries {
		if i == 0 || cs.NotBefore < at {
			at = cs.NotBefore
		}
	}
	return at
}

// remove extracts the campaign with the given ID, or nil.
func (q *queue) remove(id string) *campaignState {
	for i, cs := range q.entries {
		if cs.ID == id {
			return q.removeAt(i)
		}
	}
	return nil
}

// removeAt deletes and returns entries[i], zeroing the vacated tail slot: the
// compacting copy leaves the last element duplicated in the slice's spare
// capacity, and a long-lived daemon queue that merely truncated would keep
// that *campaignState — and its checkpoint, journal rows, and Spec —
// reachable until the slot is overwritten by a future push.
func (q *queue) removeAt(i int) *campaignState {
	cs := q.entries[i]
	last := len(q.entries) - 1
	copy(q.entries[i:], q.entries[i+1:])
	q.entries[last] = nil
	q.entries = q.entries[:last]
	return cs
}
