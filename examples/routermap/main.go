// Routermap: the downstream pipeline the paper motivates in §1 — from raw
// probes to a router-level map. A tracenet campaign collects the subnets
// along several paths and merges them into one subnet map, and Ally-style
// alias resolution (pruned by tracenet's same-subnet constraint) groups the
// interfaces into routers.
//
//	go run ./examples/routermap
package main

import (
	"context"
	"fmt"
	"log"

	"tracenet/internal/alias"
	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/ipv4"
)

func main() {
	// 1. Collect subnets along three paths: one campaign, resolved from a
	// tracenetd spec exactly as `tracenet -topo figure3 <dst...>` resolves it.
	sp := &daemon.Spec{Topology: "figure3", Targets: []string{"10.0.5.2", "10.0.4.1", "10.0.3.1"}}
	c, err := sp.Resolve("")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := collect.Run(context.Background(), c.Config)
	if err != nil {
		log.Fatal(err)
	}
	m, topology, port := rep.Map, c.Scenario.Topo, c.Port
	fmt.Println("subnet-level map:")
	fmt.Print(m)

	// 2. Group the interfaces into routers with Ally, using the subnets to
	// prune candidate pairs.
	var subnets [][]ipv4.Addr
	var addrs []ipv4.Addr
	seen := map[ipv4.Addr]bool{}
	for _, e := range m.Subnets() {
		subnets = append(subnets, e.Addrs)
		for _, a := range e.Addrs {
			if iface := topology.IfaceByAddr(a); iface != nil && iface.Router.IsHost {
				continue // hosts are not part of the router-level map
			}
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
	}
	rv := alias.NewResolver(port, port.LocalAddr())
	groups, err := rv.Resolve(addrs, alias.SameSubnetConstraint(subnets))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nrouter-level map (%d probes for alias resolution):\n", rv.Probes())
	for i, g := range groups {
		fmt.Printf("  router %d: %v\n", i+1, g)
	}
	fmt.Println("\nground truth for comparison:")
	for _, r := range topology.Routers {
		if r.IsHost {
			continue
		}
		var ifaces []ipv4.Addr
		for _, i := range r.Ifaces {
			ifaces = append(ifaces, i.Addr)
		}
		fmt.Printf("  %s: %v\n", r.Name, ifaces)
	}
}
