package topomap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// scanMap is the merge the ordered index replaced: entries keyed by prefix,
// an address index, and a scan of every entry per observation. It is kept as
// the oracle the index must agree with.
type scanMap struct {
	subnets map[ipv4.Prefix]*Entry
	byAddr  map[ipv4.Addr]ipv4.Prefix
}

func newScanMap() *scanMap {
	return &scanMap{subnets: map[ipv4.Prefix]*Entry{}, byAddr: map[ipv4.Addr]ipv4.Prefix{}}
}

func (m *scanMap) AddSubnets(subnets []*core.Subnet) {
	for _, s := range subnets {
		if s.Prefix.Bits() < 32 {
			m.addSubnet(s)
		}
	}
}

func (m *scanMap) addSubnet(s *core.Subnet) {
	var overlapping []*Entry
	for _, cand := range m.subnets {
		if cand.Prefix.Overlaps(s.Prefix) {
			overlapping = append(overlapping, cand)
		}
	}
	sort.Slice(overlapping, func(i, j int) bool {
		return overlapping[i].Prefix.Compare(overlapping[j].Prefix) < 0
	})
	if len(overlapping) == 0 {
		e := &Entry{Prefix: s.Prefix, Confidence: 1}
		m.subnets[e.Prefix] = e
		m.mergeObservation(e, s)
		return
	}
	e := overlapping[0]
	for _, o := range overlapping[1:] {
		delete(m.subnets, o.Prefix)
		e.addConflict(e.Prefix, o.Prefix)
		for _, c := range o.Conflicts {
			e.addNote(c)
		}
		e.Addrs = append(e.Addrs, o.Addrs...)
		e.Observations += o.Observations
		e.OnPath = e.OnPath || o.OnPath
		e.Degraded = e.Degraded || o.Degraded
		if o.Confidence < e.Confidence {
			e.Confidence = o.Confidence
		}
	}
	if s.Prefix != e.Prefix {
		e.addConflict(e.Prefix, s.Prefix)
	}
	if s.Prefix.Bits() < e.Prefix.Bits() {
		delete(m.subnets, e.Prefix)
		e.Prefix = s.Prefix
	}
	m.subnets[e.Prefix] = e
	m.mergeObservation(e, s)
}

func (m *scanMap) mergeObservation(e *Entry, s *core.Subnet) {
	have := map[ipv4.Addr]bool{}
	deduped := e.Addrs[:0]
	for _, a := range e.Addrs {
		if !have[a] {
			deduped = append(deduped, a)
			have[a] = true
		}
	}
	e.Addrs = deduped
	for _, a := range s.Addrs {
		if !have[a] {
			e.Addrs = append(e.Addrs, a)
			have[a] = true
		}
	}
	sort.Slice(e.Addrs, func(i, j int) bool { return e.Addrs[i] < e.Addrs[j] })
	for _, a := range e.Addrs {
		m.byAddr[a] = e.Prefix
	}
	e.Observations++
	e.OnPath = e.OnPath || s.OnPath
	e.Degraded = e.Degraded || s.Degraded
	if conf := s.Confidence; conf > 0 && conf < e.Confidence {
		e.Confidence = conf
	}
}

func (m *scanMap) Subnets() []*Entry {
	out := make([]*Entry, 0, len(m.subnets))
	for _, e := range m.subnets {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

func (m *scanMap) SubnetOf(addr ipv4.Addr) *Entry {
	if p, ok := m.byAddr[addr]; ok {
		return m.subnets[p]
	}
	for p, e := range m.subnets {
		if p.Contains(addr) {
			return e
		}
	}
	return nil
}

func (m *scanMap) AddrCount() int { return len(m.byAddr) }

// randomObservation draws a collected subnet inside 10.0.0.0/22: mostly /26
// to /31, sometimes a /23 or /22 wider than several entries, sometimes a /32
// (which both maps skip), with one to four members inside the prefix in
// arbitrary order, and random path, degradation and confidence marks.
func randomObservation(rng *rand.Rand) *core.Subnet {
	bits := 26 + rng.Intn(6)
	switch rng.Intn(12) {
	case 0:
		bits = 22 + rng.Intn(2)
	case 1:
		bits = 32
	}
	p := ipv4.NewPrefix(ipv4.MustParseAddr("10.0.0.0")+ipv4.Addr(rng.Intn(1<<10)), bits)
	s := &core.Subnet{Prefix: p, OnPath: rng.Intn(3) == 0, Degraded: rng.Intn(8) == 0}
	if rng.Intn(2) == 0 {
		s.Confidence = float64(1+rng.Intn(10)) / 10
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		s.Addrs = append(s.Addrs, p.Base()+ipv4.Addr(rng.Int63n(int64(p.Size()))))
	}
	return s
}

// TestMergeMatchesScanOracle feeds the ordered index and the old scan merge
// the same random observation sequences (nested, disjoint, repeated, and
// observations wider than several entries) and requires identical entries,
// address lookups and address counts after every step.
func TestMergeMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		got, want := New(), newScanMap()
		var seen []*core.Subnet
		for step := 0; step < 40; step++ {
			s := randomObservation(rng)
			if len(seen) > 0 && rng.Intn(5) == 0 {
				s = seen[rng.Intn(len(seen))] // the same subnet observed again
			}
			seen = append(seen, s)
			got.AddSubnets([]*core.Subnet{s})
			want.AddSubnets([]*core.Subnet{s})

			ge, we := got.Subnets(), want.Subnets()
			if !reflect.DeepEqual(ge, we) {
				t.Fatalf("trial %d step %d, after %v %v:\nindex %s\nscan  %s", trial, step, s.Prefix, s.Addrs, entriesString(ge), entriesString(we))
			}
			if g, w := got.AddrCount(), want.AddrCount(); g != w {
				t.Fatalf("trial %d step %d: AddrCount = %d, scan %d", trial, step, g, w)
			}
			// Entries match index for index, so compare lookups by position.
			gi, wi := map[*Entry]int{nil: -1}, map[*Entry]int{nil: -1}
			for i := range ge {
				gi[ge[i]], wi[we[i]] = i, i
			}
			for a := ipv4.MustParseAddr("9.255.255.254"); a <= ipv4.MustParseAddr("10.0.4.1"); a++ {
				if g, w := gi[got.SubnetOf(a)], wi[want.SubnetOf(a)]; g != w {
					t.Fatalf("trial %d step %d: SubnetOf(%v) is entry %d, scan %d", trial, step, a, g, w)
				}
			}
		}
	}
}

func entriesString(es []*Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "\n  %+v", *e)
	}
	return b.String()
}
