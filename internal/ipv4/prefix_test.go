package ipv4

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"198.51.100.0/30", "198.51.100.0/30", true},
		{"198.51.100.7/30", "198.51.100.4/30", true}, // canonicalized
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.2.3/0", "0.0.0.0/0", true},
		{"10.1.2.3/32", "10.1.2.3/32", true},
		{"10.0.0.0/33", "", false},
		{"10.0.0.0/-1", "", false},
		{"10.0.0.0", "", false},
		{"bad/24", "", false},
		{"10.0.0.0/x", "", false},
	}
	for _, c := range cases {
		got, err := ParsePrefix(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePrefix(%q): ok=%v err=%v", c.in, c.ok, err)
			continue
		}
		if c.ok && got.String() != c.want {
			t.Errorf("ParsePrefix(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPrefixCanonical(t *testing.T) {
	// Two prefixes covering the same range must compare equal (map-key use).
	a := NewPrefix(MustParseAddr("10.0.0.7"), 29)
	b := NewPrefix(MustParseAddr("10.0.0.1"), 29)
	if a != b {
		t.Fatalf("canonical prefixes differ: %v vs %v", a, b)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("198.51.100.8/29")
	for a := MustParseAddr("198.51.100.8"); a <= MustParseAddr("198.51.100.15"); a++ {
		if !p.Contains(a) {
			t.Errorf("%v should contain %v", p, a)
		}
	}
	if p.Contains(MustParseAddr("198.51.100.7")) || p.Contains(MustParseAddr("198.51.100.16")) {
		t.Errorf("%v contains addresses outside its range", p)
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	f := func(a uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		p := NewPrefix(Addr(a), bits)
		if !p.Contains(Addr(a)) {
			return false
		}
		// Every address in the range must be contained; first/last suffice as
		// the mask test is monotone over the range.
		return p.Contains(p.First()) && p.Contains(p.Last())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSize(t *testing.T) {
	cases := []struct {
		bits int
		want uint64
	}{{32, 1}, {31, 2}, {30, 4}, {29, 8}, {24, 256}, {0, 1 << 32}}
	for _, c := range cases {
		p := NewPrefix(0, c.bits)
		if p.Size() != c.want {
			t.Errorf("/%d size = %d, want %d", c.bits, p.Size(), c.want)
		}
	}
}

func TestHostCount(t *testing.T) {
	if got := MustParsePrefix("10.0.0.0/31").HostCount(); got != 2 {
		t.Errorf("/31 host count = %d, want 2", got)
	}
	if got := MustParsePrefix("10.0.0.0/30").HostCount(); got != 2 {
		t.Errorf("/30 host count = %d, want 2", got)
	}
	if got := MustParsePrefix("10.0.0.0/24").HostCount(); got != 254 {
		t.Errorf("/24 host count = %d, want 254", got)
	}
}

func TestBoundary(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/29")
	if !p.IsBoundary(MustParseAddr("10.0.0.0")) {
		t.Error("network address not flagged as boundary")
	}
	if !p.IsBoundary(MustParseAddr("10.0.0.7")) {
		t.Error("broadcast address not flagged as boundary")
	}
	if p.IsBoundary(MustParseAddr("10.0.0.3")) {
		t.Error("interior address flagged as boundary")
	}
	// H9: /31 subnets have no boundary addresses.
	p31 := MustParsePrefix("10.0.0.0/31")
	if p31.IsBoundary(MustParseAddr("10.0.0.0")) || p31.IsBoundary(MustParseAddr("10.0.0.1")) {
		t.Error("/31 must have no boundary addresses")
	}
}

func TestParentAndHalves(t *testing.T) {
	p := MustParsePrefix("10.0.0.4/30")
	if got := p.Parent(); got != MustParsePrefix("10.0.0.0/29") {
		t.Errorf("parent = %v", got)
	}
	lo, hi := MustParsePrefix("10.0.0.0/29").Halves()
	if lo != MustParsePrefix("10.0.0.0/30") || hi != MustParsePrefix("10.0.0.4/30") {
		t.Errorf("halves = %v, %v", lo, hi)
	}
	if got := NewPrefix(0, 0).Parent(); got != NewPrefix(0, 0) {
		t.Errorf("parent of /0 = %v, want /0", got)
	}
}

func TestHalvesPanicsOn32(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Halves on /32 did not panic")
		}
	}()
	MustParsePrefix("10.0.0.1/32").Halves()
}

func TestParentHalvesInverse(t *testing.T) {
	f := func(a uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw%32) + 1 // 1..32 so Parent is a real split
		p := NewPrefix(Addr(a), bits)
		lo, hi := p.Parent().Halves()
		return p == lo || p == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/24")
	b := MustParsePrefix("10.0.0.128/25")
	c := MustParsePrefix("10.0.1.0/24")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
	if !a.Overlaps(a) {
		t.Error("prefix must overlap itself")
	}
}

func TestAddrsIteration(t *testing.T) {
	p := MustParsePrefix("192.0.2.8/30")
	var got []Addr
	p.Addrs(func(a Addr) bool {
		got = append(got, a)
		return true
	})
	want := []Addr{
		MustParseAddr("192.0.2.8"), MustParseAddr("192.0.2.9"),
		MustParseAddr("192.0.2.10"), MustParseAddr("192.0.2.11"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d addrs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddrsEarlyStop(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	n := 0
	p.Addrs(func(Addr) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestAddrSlicePanicsOnHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddrSlice on /8 did not panic")
		}
	}()
	MustParsePrefix("10.0.0.0/8").AddrSlice()
}

func TestFirstLast(t *testing.T) {
	p := MustParsePrefix("203.0.113.64/28")
	if p.First() != MustParseAddr("203.0.113.64") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("203.0.113.79") {
		t.Errorf("Last = %v", p.Last())
	}
}

func TestTopOfAddressSpace(t *testing.T) {
	// Prefix iteration and arithmetic at the very top of the space must not
	// wrap around.
	p := MustParsePrefix("255.255.255.248/29")
	var got []Addr
	p.Addrs(func(a Addr) bool {
		got = append(got, a)
		return true
	})
	if len(got) != 8 {
		t.Fatalf("iterated %d addrs, want 8", len(got))
	}
	if got[7] != MustParseAddr("255.255.255.255") {
		t.Fatalf("last = %v", got[7])
	}
	if p.Last() != MustParseAddr("255.255.255.255") {
		t.Fatalf("Last = %v", p.Last())
	}
	if !p.IsBoundary(MustParseAddr("255.255.255.255")) {
		t.Fatal("broadcast at top of space not flagged")
	}
	// Mates at the top wrap within their own /31 and /30 only.
	top := MustParseAddr("255.255.255.254")
	if top.Mate31() != MustParseAddr("255.255.255.255") {
		t.Fatalf("mate31 = %v", top.Mate31())
	}
	if top.Mate30() != MustParseAddr("255.255.255.253") {
		t.Fatalf("mate30 = %v", top.Mate30())
	}
}

func TestCompare(t *testing.T) {
	ordered := []string{"0.0.0.0/0", "0.0.0.0/32", "10.0.0.0/8", "10.0.0.0/24", "10.0.0.0/25", "10.0.0.128/25", "10.0.1.0/24", "255.255.255.255/32"}
	for i, a := range ordered {
		for j, b := range ordered {
			got := MustParsePrefix(a).Compare(MustParsePrefix(b))
			want := cmp.Compare(i, j)
			if got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// randomPrefix draws a prefix crowded into a few small windows (the bottom
// and top of the address space and 10.0.0.0/20) so random sets and queries
// overlap often; one draw in sixteen takes any length from /0 to /32.
func randomPrefix(rng *rand.Rand) Prefix {
	var a Addr
	switch rng.Intn(4) {
	case 0:
		a = Addr(rng.Uint32())
	case 1:
		a = Addr(rng.Intn(1 << 12))
	case 2:
		a = Addr(^uint32(0) - uint32(rng.Intn(1<<12)))
	default:
		a = MustParseAddr("10.0.0.0") + Addr(rng.Intn(1<<12))
	}
	bits := 20 + rng.Intn(13)
	if rng.Intn(16) == 0 {
		bits = rng.Intn(33)
	}
	return NewPrefix(a, bits)
}

// TestOverlapRunMatchesScan checks OverlapRun against a brute-force overlap
// scan over random disjoint ordered sets and random queries, /0, /32 and
// both ends of the address space included. With no overlap, the empty run
// must sit where q would be inserted.
func TestOverlapRunMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	self := func(p Prefix) Prefix { return p }
	fixed := []Prefix{
		MustParsePrefix("0.0.0.0/0"), MustParsePrefix("0.0.0.0/32"), MustParsePrefix("0.0.0.0/31"),
		MustParsePrefix("255.255.255.255/32"), MustParsePrefix("255.255.255.254/31"),
		MustParsePrefix("128.0.0.0/1"), MustParsePrefix("10.0.0.0/8"),
	}
	for trial := 0; trial < 400; trial++ {
		var set []Prefix
		switch trial {
		case 0: // empty
		case 1:
			set = []Prefix{MustParsePrefix("0.0.0.0/0")}
		case 2:
			set = []Prefix{MustParsePrefix("0.0.0.0/32"), MustParsePrefix("255.255.255.255/32")}
		default:
			for tries := rng.Intn(80); tries > 0; tries-- {
				p := randomPrefix(rng)
				disjoint := true
				for _, q := range set {
					disjoint = disjoint && !q.Overlaps(p)
				}
				if disjoint {
					set = append(set, p)
				}
			}
		}
		slices.SortFunc(set, Prefix.Compare)
		queries := append([]Prefix(nil), fixed...)
		for _, p := range set {
			queries = append(queries, p, p.Parent(), NewPrefix(p.First(), 32), NewPrefix(p.Last(), 32))
			if p.Bits() < 32 {
				lo, hi := p.Halves()
				queries = append(queries, lo, hi)
			}
		}
		for i := 0; i < 50; i++ {
			queries = append(queries, randomPrefix(rng))
		}
		for _, q := range queries {
			lo, hi := OverlapRun(set, q, self)
			if lo < 0 || lo > hi || hi > len(set) {
				t.Fatalf("set %v: OverlapRun(%v) = [%d, %d)", set, q, lo, hi)
			}
			for i, p := range set {
				in := i >= lo && i < hi
				if p.Overlaps(q) != in {
					t.Fatalf("set %v: OverlapRun(%v) = [%d, %d), but %v overlaps = %v", set, q, lo, hi, p, !in)
				}
				if lo == hi && (i < lo) != (p.Compare(q) < 0) {
					t.Fatalf("set %v: empty run for %v at %d, but %v sorts on the other side", set, q, lo, p)
				}
			}
		}
	}
}
