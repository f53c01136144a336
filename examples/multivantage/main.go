// Multivantage: the §4.2 cross-validation methodology. Three vantage points
// trace a common target set into four ISP cores, one collect.Run campaign
// each; the subnets each collects are compared region by region, reproducing
// Figure 6's observation that around 60% of a vantage point's subnets are
// seen by all three and roughly 80% by at least one other.
//
//	go run ./examples/multivantage
package main

import (
	"context"
	"fmt"
	"log"

	"tracenet/internal/collect"
	"tracenet/internal/experiments"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

func main() {
	const structSeed = 7

	collected := make([]map[ipv4.Prefix]bool, len(topo.VantageNames))
	for i, vantage := range topo.VantageNames {
		// Every campaign sees the same network structure but its own
		// responsiveness conditions (campaign seed), like measurement
		// campaigns run at different times.
		sc := topo.ISPCores(structSeed, structSeed+int64(i+1)*1000)
		network := netsim.New(sc.Topo, netsim.Config{LossRate: 0.02, Seed: int64(i) * 101})
		port, err := network.PortFor(vantage)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := collect.Run(context.Background(), collect.Config{
			Targets: sc.TargetsFor(),
			Probe:   probe.Options{Cache: true, FlowID: uint16(7 + i)},
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				return probe.New(port, port.LocalAddr(), opts), nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		collected[i] = map[ipv4.Prefix]bool{}
		for _, s := range rep.Subnets() {
			if s.Prefix.Bits() < 32 {
				collected[i][s.Prefix] = true
			}
		}
		fmt.Printf("%-8s collected %4d subnets with %6d probes\n",
			vantage, len(collected[i]), rep.Stats.WireProbes)
	}

	v := experiments.VennOf(collected[0], collected[1], collected[2])
	fmt.Printf("\nVenn regions (paper Figure 6):\n")
	fmt.Printf("  only %-8s %4d\n", topo.VantageNames[0], v.OnlyA)
	fmt.Printf("  only %-8s %4d\n", topo.VantageNames[1], v.OnlyB)
	fmt.Printf("  only %-8s %4d\n", topo.VantageNames[2], v.OnlyC)
	fmt.Printf("  two vantages  %4d / %4d / %4d\n", v.AB, v.AC, v.BC)
	fmt.Printf("  all three     %4d\n", v.ABC)
	fa, fb, fc := v.AgreementAll()
	ga, gb, gc := v.AgreementAny()
	fmt.Printf("\nobserved by all three:          %.0f%% / %.0f%% / %.0f%%  (paper: ~60%%)\n",
		100*fa, 100*fb, 100*fc)
	fmt.Printf("observed by at least one other: %.0f%% / %.0f%% / %.0f%%  (paper: ~80%%)\n",
		100*ga, 100*gb, 100*gc)
}
