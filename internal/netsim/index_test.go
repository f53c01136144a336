package netsim_test

import (
	"math/rand"
	"testing"

	"tracenet/internal/cli"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
)

// TestSubnetLookupsMatchScan checks SubnetContaining and SubnetByPrefix
// against a linear scan of Topology.Subnets on every built-in topology: for
// every address of every subnet, the neighbours just outside each subnet,
// each subnet's prefix, its parent and its halves, and random addresses.
func TestSubnetLookupsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range cli.BuiltinNames() {
		sc, err := cli.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		tp := sc.Topo
		containing := func(a ipv4.Addr) *netsim.Subnet {
			for _, s := range tp.Subnets {
				if s.Prefix.Contains(a) {
					return s
				}
			}
			return nil
		}
		byPrefix := func(p ipv4.Prefix) *netsim.Subnet {
			for _, s := range tp.Subnets {
				if s.Prefix == p {
					return s
				}
			}
			return nil
		}
		checkAddr := func(a ipv4.Addr) {
			if got, want := tp.SubnetContaining(a), containing(a); got != want {
				t.Fatalf("%s: SubnetContaining(%v) = %v, scan %v", name, a, got, want)
			}
		}
		checkPrefix := func(p ipv4.Prefix) {
			if got, want := tp.SubnetByPrefix(p), byPrefix(p); got != want {
				t.Fatalf("%s: SubnetByPrefix(%v) = %v, scan %v", name, p, got, want)
			}
		}
		addrs := 0
		for _, s := range tp.Subnets {
			s.Prefix.Addrs(func(a ipv4.Addr) bool {
				addrs++
				checkAddr(a)
				return true
			})
			checkAddr(s.Prefix.First() - 1)
			checkAddr(s.Prefix.Last() + 1)
			checkPrefix(s.Prefix)
			checkPrefix(s.Prefix.Parent())
			if s.Prefix.Bits() < 32 {
				lo, hi := s.Prefix.Halves()
				checkPrefix(lo)
				checkPrefix(hi)
			}
		}
		for i := 0; i < 1000; i++ {
			checkAddr(ipv4.Addr(rng.Uint32()))
		}
		t.Logf("%s: %d subnets, %d addresses", name, len(tp.Subnets), addrs)
	}
}
