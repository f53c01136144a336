package ipv4

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Prefix is a CIDR prefix (subnet): a base address and a prefix length.
// The base is always stored in canonical (masked) form, so two Prefix values
// describing the same subnet compare equal and can be used as map keys.
type Prefix struct {
	base Addr
	bits int
}

// NewPrefix returns the canonical /bits prefix covering addr.
// It panics if bits is outside [0, 32]; use MakePrefix for checked creation.
func NewPrefix(addr Addr, bits int) Prefix {
	p, err := MakePrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// MakePrefix returns the canonical /bits prefix covering addr, validating bits.
func MakePrefix(addr Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: prefix length %d out of range", bits)
	}
	return Prefix{base: addr & mask(bits), bits: bits}, nil
}

// ParsePrefix parses CIDR notation such as "198.51.100.0/30".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix %q: missing '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix %q: bad length", s)
	}
	return MakePrefix(a, bits)
}

// MustParsePrefix parses CIDR notation and panics on error (fixture helper).
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Base returns the canonical (lowest) address of the prefix.
func (p Prefix) Base() Addr { return p.base }

// Bits returns the prefix length (0..32). A /31 or /30 covering two or four
// addresses is the paper's point-to-point link; anything shorter is a
// multi-access LAN candidate.
func (p Prefix) Bits() int { return p.bits }

// IsValid reports whether p was constructed (the zero Prefix is a valid /0,
// so validity here means "explicitly created"; a zero Prefix has bits 0 and
// base 0 which is also the whole address space — callers that need a
// distinguished "no prefix" should track it separately).
func (p Prefix) IsValid() bool { return p.bits >= 0 && p.bits <= 32 }

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.base.String() + "/" + strconv.Itoa(p.bits)
}

// MarshalText renders CIDR notation, so prefixes embed in JSON artifacts as
// strings (a Prefix's fields are unexported and would otherwise serialize as
// an empty object).
func (p Prefix) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses CIDR notation.
func (p *Prefix) UnmarshalText(text []byte) error {
	parsed, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Contains reports whether addr falls inside p.
func (p Prefix) Contains(addr Addr) bool {
	return addr&mask(p.bits) == p.base
}

// Overlaps reports whether the address ranges of p and q intersect.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.base)
	}
	return q.Contains(p.base)
}

// Compare orders prefixes by base address, then by length, shorter first,
// so a prefix sorts just before the prefixes nested inside it. It returns
// -1, 0 or +1, for slices.SortFunc.
func (p Prefix) Compare(q Prefix) int {
	return cmp.Or(cmp.Compare(p.base, q.base), cmp.Compare(p.bits, q.bits))
}

// OverlapRun returns the index range [lo, hi) of the elements of s whose
// prefix, read by prefixOf, overlaps q. The elements must be sorted by
// Compare and their prefixes pairwise disjoint: their ranges then ascend by
// first and by last address alike, so the overlapping elements are one
// contiguous run, found by two binary searches. Look an address up as its
// /32.
func OverlapRun[E any](s []E, q Prefix, prefixOf func(E) Prefix) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return prefixOf(s[i]).Last() >= q.First() })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return prefixOf(s[lo+i]).First() > q.Last() })
	return lo, hi
}

// Size returns the number of addresses covered by p (2^(32-bits)).
// For /0 the result 2^32 does not fit in uint32, so the return type is uint64.
func (p Prefix) Size() uint64 { return 1 << (32 - p.bits) }

// HostCount returns the number of assignable host addresses under common
// practice: all addresses for /31 and /32 (RFC 3021 point-to-point), and
// Size-2 (excluding network and broadcast) otherwise.
func (p Prefix) HostCount() uint64 {
	if p.bits >= 31 {
		return p.Size()
	}
	return p.Size() - 2
}

// First returns the lowest address in p (the network address for /30 and
// shorter prefixes).
func (p Prefix) First() Addr { return p.base }

// Last returns the highest address in p (the broadcast address for /30 and
// shorter prefixes).
func (p Prefix) Last() Addr { return p.base + Addr(p.Size()-1) }

// NetworkAddr returns the network (all-zero host bits) address.
func (p Prefix) NetworkAddr() Addr { return p.base }

// BroadcastAddr returns the broadcast (all-one host bits) address.
func (p Prefix) BroadcastAddr() Addr { return p.Last() }

// IsBoundary reports whether addr is the network or broadcast address of p.
// Heuristic H9 (boundary address reduction) forbids collected subnets with
// prefix shorter than /31 from containing boundary addresses.
func (p Prefix) IsBoundary(addr Addr) bool {
	if p.bits >= 31 {
		return false
	}
	return addr == p.NetworkAddr() || addr == p.BroadcastAddr()
}

// Parent returns the prefix one bit shorter that covers p (used when growing
// the temporary subnet in Algorithm 1). Parent of a /0 is itself.
func (p Prefix) Parent() Prefix {
	if p.bits == 0 {
		return p
	}
	return NewPrefix(p.base, p.bits-1)
}

// Halves splits p into its two /bits+1 children (used by heuristic H9 when
// dividing a subnet that contains a boundary address). It panics for /32.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.bits >= 32 {
		panic("ipv4: cannot split a /32")
	}
	lo = NewPrefix(p.base, p.bits+1)
	hi = NewPrefix(p.base+Addr(p.Size()/2), p.bits+1)
	return lo, hi
}

// Addrs iterates over every address in p in increasing order, calling fn for
// each; iteration stops early if fn returns false. For /0 this visits 2^32
// addresses — callers are expected to bound the prefix length first.
func (p Prefix) Addrs(fn func(Addr) bool) {
	n := p.Size()
	a := p.base
	for i := uint64(0); i < n; i++ {
		if !fn(a) {
			return
		}
		a++
	}
}

// AddrSlice materializes the addresses of p. It panics for prefixes shorter
// than /16 to prevent accidental gigantic allocations.
func (p Prefix) AddrSlice() []Addr {
	if p.bits < 16 {
		panic("ipv4: AddrSlice on prefix shorter than /16")
	}
	out := make([]Addr, 0, p.Size())
	p.Addrs(func(a Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}
