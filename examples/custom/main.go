// Custom: build your own simulated network with the netsim Builder and run
// tracenet over it — the path a downstream user takes to test collection
// behaviour against a topology of their choosing (or to regression-test a
// production network's numbering plan before deployment).
//
//	go run ./examples/custom
package main

import (
	"fmt"
	"log"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

func main() {
	// A small enterprise-like network: an edge router, a firewall-protected
	// management LAN, a dual-homed server LAN, and an anonymous core hop.
	b := netsim.NewBuilder()

	vantage := b.Host("vantage")
	edge := b.Router("edge")
	coreRtr := b.Router("core")
	distA := b.Router("dist-a")
	distB := b.Router("dist-b")
	server := b.Host("server")

	access := b.Subnet("192.0.2.0/30")
	b.Attach(vantage, access, "192.0.2.1")
	b.Attach(edge, access, "192.0.2.2")

	uplink := b.Subnet("10.10.0.0/31")
	b.Attach(edge, uplink, "10.10.0.0")
	b.Attach(coreRtr, uplink, "10.10.0.1")

	// The core router stays anonymous for TTL-scoped probes — a common
	// enterprise configuration.
	coreRtr.IndirectPolicy = netsim.PolicyNil

	// Management LAN behind a probe-dropping firewall.
	mgmt := b.Subnet("10.10.8.0/29")
	b.Attach(coreRtr, mgmt, "10.10.8.1")
	b.Attach(distA, mgmt, "10.10.8.2")
	mgmt.Unresponsive = true

	// Server LAN, well utilized.
	srvLAN := b.Subnet("10.10.16.0/29")
	b.Attach(coreRtr, srvLAN, "10.10.16.1")
	b.Attach(distA, srvLAN, "10.10.16.2")
	b.Attach(distB, srvLAN, "10.10.16.3")
	for i := 4; i <= 5; i++ {
		r := b.Router(fmt.Sprintf("srv%d", i))
		b.AttachA(r, srvLAN, ipv4.MustParseAddr("10.10.16.0")+ipv4.Addr(i))
	}

	hosting := b.Subnet("10.10.24.0/30")
	b.Attach(distB, hosting, "10.10.24.1")
	b.Attach(server, hosting, "10.10.24.2")

	topology, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	network := netsim.New(topology, netsim.Config{})
	port, err := network.PortFor("vantage")
	if err != nil {
		log.Fatal(err)
	}
	// One destination is one core.Trace; trace a list with collect.Run.
	prober := probe.New(port, port.LocalAddr(), probe.Options{Cache: true})
	res, err := core.Trace(prober, ipv4.MustParseAddr("10.10.24.2"), core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Println("\nwhat tracenet sees of this network:")
	for _, s := range res.Subnets {
		fmt.Printf("  %v\n", s)
	}
	fmt.Println("\nnote: the anonymous core hop is bridged, and the firewalled")
	fmt.Println("management LAN 10.10.8.0/29 is invisible — exactly the paper's")
	fmt.Println("'totally unresponsive subnet' class.")
}
