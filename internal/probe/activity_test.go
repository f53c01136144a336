package probe

import (
	"sync"
	"testing"
)

func TestActivityMarkAndRead(t *testing.T) {
	var a Activity
	if a.Probes() != 0 || a.LastTick() != 0 {
		t.Fatalf("fresh activity not zero: probes %d, last %d", a.Probes(), a.LastTick())
	}
	a.MarkAt(10)
	a.MarkAt(7) // stale tick from a racing worker must not rewind the max
	a.MarkAt(12)
	if got := a.Probes(); got != 3 {
		t.Fatalf("probes = %d, want 3", got)
	}
	if got := a.LastTick(); got != 12 {
		t.Fatalf("last tick = %d, want 12 (CAS-max must ignore stale ticks)", got)
	}
}

func TestActivityNilSafe(t *testing.T) {
	var a *Activity
	a.MarkAt(5)
	if a.Probes() != 0 || a.LastTick() != 0 {
		t.Fatal("nil activity must be inert")
	}
}

func TestActivityConcurrentMonotone(t *testing.T) {
	var a Activity
	const workers, marks = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < marks; i++ {
				a.MarkAt(uint64(w*marks + i))
			}
		}(w)
	}
	wg.Wait()
	if got := a.Probes(); got != workers*marks {
		t.Fatalf("probes = %d, want %d", got, workers*marks)
	}
	if got := a.LastTick(); got != workers*marks-1 {
		t.Fatalf("last tick = %d, want %d", got, workers*marks-1)
	}
}

// The per-probe cost of activity tracking must be zero allocations: the
// campaign wires one Activity into every prober, so anything it allocates
// multiplies by the probe count and trips the allocation-budget gate.
func TestActivityMarkZeroAlloc(t *testing.T) {
	var a Activity
	tick := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tick++
		a.MarkAt(tick)
	}); n != 0 {
		t.Fatalf("Activity.MarkAt allocates %.1f per call, want 0", n)
	}
}

func TestProberMarksActivity(t *testing.T) {
	var a Activity
	tr := staticTransport{} // silent: every exchange completes with no reply
	p := New(tr, addr("10.0.0.1"), Options{Retry: &RetryPolicy{}, Activity: &a})
	for i := 0; i < 4; i++ {
		if _, err := p.ProbeUncached(addr("10.0.2.3"), 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Probes(); got != 4 {
		t.Fatalf("activity probes = %d, want 4 (one mark per exchange)", got)
	}
}
