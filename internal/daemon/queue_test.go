package daemon

import "testing"

func entry(id string, seq uint64, prio int, notBefore uint64, t *tenantState) *campaignState {
	return &campaignState{id: id, seq: seq, spec: &Spec{Priority: prio}, notBefore: notBefore, tenant: t}
}

// TestQueueOrdering: highest priority first, FIFO by admission sequence
// within a priority, freshness deadlines defer eligibility.
func TestQueueOrdering(t *testing.T) {
	var q queue
	q.push(entry("a", 1, 0, 0, nil))
	q.push(entry("b", 2, 5, 0, nil))
	q.push(entry("c", 3, 5, 0, nil))
	q.push(entry("d", 4, 0, 100, nil)) // deferred past now=0

	var got []string
	for {
		e := q.pop(0, nil)
		if e == nil {
			break
		}
		got = append(got, e.id)
	}
	want := []string{"b", "c", "a"}
	if len(got) != len(want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
	if q.len() != 1 {
		t.Fatalf("deferred entry should remain queued, len = %d", q.len())
	}
	if e := q.pop(99, nil); e != nil {
		t.Fatalf("entry ran before its freshness deadline: %s", e.id)
	}
	if e := q.pop(100, nil); e == nil || e.id != "d" {
		t.Fatalf("deadline reached but pop = %v", e)
	}
}

// TestQueueTenantEligibility: an ineligible tenant's entries are passed
// over without losing their place.
func TestQueueTenantEligibility(t *testing.T) {
	busy := &tenantState{cfg: TenantConfig{Name: "busy"}}
	free := &tenantState{cfg: TenantConfig{Name: "free"}}
	var q queue
	q.push(entry("b1", 1, 9, 0, busy)) // highest priority but blocked
	q.push(entry("f1", 2, 0, 0, free))

	eligible := func(t *tenantState) bool { return t != busy }
	if e := q.pop(0, eligible); e == nil || e.id != "f1" {
		t.Fatalf("pop with busy tenant blocked = %v, want f1", e)
	}
	// Once eligible again, the blocked entry still wins on priority.
	if e := q.pop(0, nil); e == nil || e.id != "b1" {
		t.Fatalf("pop after unblock = %v, want b1", e)
	}
}

// TestQueueRemove: removal by ID extracts exactly that entry.
func TestQueueRemove(t *testing.T) {
	var q queue
	q.push(entry("a", 1, 0, 0, nil))
	q.push(entry("b", 2, 0, 0, nil))
	if e := q.remove("a"); e == nil || e.id != "a" {
		t.Fatalf("remove(a) = %v", e)
	}
	if e := q.remove("a"); e != nil {
		t.Fatalf("second remove(a) = %v, want nil", e)
	}
	if e := q.pop(0, nil); e == nil || e.id != "b" {
		t.Fatalf("pop after remove = %v, want b", e)
	}
}

// TestQueueReleasesRemovedEntries: pop and remove must not keep extracted
// entries reachable through the slice's spare capacity. A daemon queue lives
// for the process lifetime, and each entry pins a campaign Spec, resume
// checkpoint, and journal rows — a stale pointer in the vacated tail slot is
// a leak until some future push happens to overwrite it.
func TestQueueReleasesRemovedEntries(t *testing.T) {
	var q queue
	q.push(entry("a", 1, 0, 0, nil))
	q.push(entry("b", 2, 9, 0, nil)) // popped first (priority), vacating a mid slot
	q.push(entry("c", 3, 0, 0, nil))

	if e := q.pop(0, nil); e == nil || e.id != "b" {
		t.Fatalf("pop = %v, want b", e)
	}
	if e := q.remove("c"); e == nil || e.id != "c" {
		t.Fatalf("remove(c) = %v", e)
	}
	for _, stale := range q.entries[len(q.entries):cap(q.entries)] {
		if stale != nil {
			t.Fatalf("vacated slot still pins entry %q", stale.id)
		}
	}
}
