// Protocols: the Table 3 methodology. The same tracenet campaign is run with
// ICMP, UDP, and TCP probe packets against one ISP core, resolved from a
// tracenetd spec as `tracenet -topo isps -proto p` resolves it; the number of
// collected subnets per protocol reproduces the paper's finding that ICMP
// clearly outperforms UDP, and TCP is negligible.
//
//	go run ./examples/protocols
package main

import (
	"context"
	"fmt"
	"log"

	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/ipv4"
	"tracenet/internal/topo"
)

func main() {
	profiles := topo.ISPProfiles()
	for _, proto := range []string{"icmp", "udp", "tcp"} {
		// A fresh but identical network per protocol run.
		c, err := (&daemon.Spec{Topology: "isps", Seed: 7, Proto: proto}).Resolve("")
		if err != nil {
			log.Fatal(err)
		}
		rep, err := collect.Run(context.Background(), c.Config)
		if err != nil {
			log.Fatal(err)
		}
		// Two hop contexts can grow the same prefix: count each prefix once.
		seen := map[ipv4.Prefix]bool{}
		perISP := map[string]int{}
		total := 0
		for _, s := range rep.Subnets() {
			if s.Prefix.Bits() >= 32 || seen[s.Prefix] {
				continue
			}
			seen[s.Prefix] = true
			for _, p := range profiles {
				if p.Block.Contains(s.Prefix.Base()) {
					perISP[p.Name]++
					total++
				}
			}
		}
		fmt.Printf("%-5s -> %4d subnets (", proto, total)
		for i, p := range profiles {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", p.Name, perISP[p.Name])
		}
		fmt.Printf("), %d probes\n", rep.Stats.WireProbes)
	}
	fmt.Println("\npaper Table 3 totals: ICMP 11995, UDP 3779, TCP 68 (scaled ~1:10 here)")
}
