// Command traceroute runs the classic baseline over the same simulated
// substrate as cmd/tracenet, resolved through the same daemon.Spec: one
// responding IP address per hop, nothing more — exactly what the paper
// improves on.
//
// Usage:
//
//	traceroute [flags] [destination...]
//
//	-topo name|file   built-in topology or a topology JSON file (default figure3)
//	-vantage host     vantage host name
//	-proto p          probe protocol: icmp (default), udp, tcp
//	-maxttl n         maximum trace length, at least 1 (default 30)
//	-classic          vary the flow identifier per probe (non-Paris behaviour)
//	-rr               set the record-route option (DisCarte-style two addresses per hop)
//	-seed n           simulation seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tracenet/internal/daemon"
	"tracenet/internal/discarte"
	"tracenet/internal/trace"
)

func main() {
	var (
		topoName = flag.String("topo", "figure3", "built-in topology name or JSON file")
		vantage  = flag.String("vantage", "", "vantage host name")
		protoStr = flag.String("proto", "icmp", "probe protocol: icmp, udp, tcp")
		maxTTL   = flag.Int("maxttl", 30, "maximum trace length")
		classic  = flag.Bool("classic", false, "vary the flow identifier per probe")
		rr       = flag.Bool("rr", false, "set the record-route option (DisCarte-style)")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *topoName, *vantage, *protoStr, *maxTTL, *classic, *rr, *seed, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "traceroute:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, topoName, vantage, protoStr string, maxTTL int, classic, rr bool, seed int64, args []string) error {
	// The flag defaults to 30, so a 0 was typed; the Spec would read it as
	// unset and trace with 30. Resolve refuses a negative bound.
	if maxTTL == 0 {
		return fmt.Errorf("-maxttl must be at least 1")
	}
	sp := &daemon.Spec{Topology: topoName, Seed: seed, Vantage: vantage, Proto: protoStr, MaxTTL: maxTTL, Targets: args}
	c, err := sp.Resolve("")
	if err != nil {
		return err
	}
	maxTTL = c.Config.Session.MaxTTL
	opts := c.Config.Probe
	opts.VaryFlow = classic
	opts.RecordRoute = rr
	pr, err := c.Config.Dial(opts)
	if err != nil {
		return err
	}
	for _, dst := range c.Config.Targets {
		if rr {
			route, err := discarte.Run(pr, dst, discarte.Options{MaxTTL: maxTTL})
			if err != nil {
				return err
			}
			fmt.Fprint(w, route)
			continue
		}
		route, err := trace.Run(pr, dst, trace.Options{MaxTTL: maxTTL})
		if err != nil {
			return err
		}
		fmt.Fprint(w, route)
	}
	return nil
}
