// Command subnetmap runs the full mapping pipeline over a simulated network:
// a tracenet campaign toward a target set (resolved from a daemon.Spec and
// run by collect.Run, as tracenet and tracenetd do), whose merged subnet-level
// topology map it prints, and (optionally) Ally-style alias resolution to
// group the interfaces into routers — the router-level map the paper
// positions tracenet as the collector for.
//
// Usage:
//
//	subnetmap [flags] [destination...]
//
//	-topo name|file   built-in topology or topology JSON (default figure3)
//	-vantage host     vantage host name
//	-seed n           simulation seed
//	-routers          also resolve aliases and print the router-level view
//	-adj              print subnet adjacencies (the map's links)
//
// Without destinations, the topology's suggested targets are traced.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tracenet/internal/alias"
	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/ipv4"
)

func main() {
	var (
		topoName = flag.String("topo", "figure3", "built-in topology name or JSON file")
		vantage  = flag.String("vantage", "", "vantage host name")
		seed     = flag.Int64("seed", 1, "simulation seed")
		routers  = flag.Bool("routers", false, "resolve aliases and print the router-level view")
		adj      = flag.Bool("adj", false, "print subnet adjacencies")
	)
	flag.Parse()
	if err := run(os.Stdout, *topoName, *vantage, *seed, *routers, *adj, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "subnetmap:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, topoName, vantage string, seed int64, routers, adj bool, args []string) error {
	sp := &daemon.Spec{Topology: topoName, Seed: seed, Vantage: vantage, Targets: args}
	c, err := sp.Resolve("")
	if err != nil {
		return err
	}
	rep, err := collect.Run(context.Background(), c.Config)
	if err != nil {
		return err
	}
	m := rep.Map
	fmt.Fprintf(w, "mapped %s from %s with %d probes\n\n", c.Scenario.Description, c.Port.Host().Name, rep.Stats.WireProbes)
	fmt.Fprint(w, m)

	if adj {
		fmt.Fprintln(w, "\nsubnet adjacencies:")
		for _, pair := range m.AdjacentSubnets() {
			fmt.Fprintf(w, "  %v -- %v\n", pair[0].Prefix, pair[1].Prefix)
		}
	}

	if routers {
		var subnets [][]ipv4.Addr
		var addrs []ipv4.Addr
		seen := map[ipv4.Addr]bool{}
		for _, e := range m.Subnets() {
			subnets = append(subnets, e.Addrs)
			for _, a := range e.Addrs {
				if !seen[a] {
					seen[a] = true
					addrs = append(addrs, a)
				}
			}
		}
		rv := alias.NewResolver(c.Port, c.Port.LocalAddr())
		groups, err := rv.Resolve(addrs, alias.SameSubnetConstraint(subnets))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nrouter-level view (%d routers, %d alias probes):\n", len(groups), rv.Probes())
		for i, g := range groups {
			fmt.Fprintf(w, "  router %d: %v\n", i+1, g)
		}
	}
	return nil
}
