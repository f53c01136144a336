package experiments

import (
	"context"
	"fmt"

	"tracenet/internal/collect"
	"tracenet/internal/daemon"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// runSpec resolves sp exactly as tracenet and tracenetd resolve it and runs
// the campaign.
func runSpec(sp daemon.Spec) (*daemon.Campaign, *collect.Report, error) {
	c, err := sp.Resolve("")
	if err != nil {
		return nil, nil, err
	}
	rep, err := runCampaign(c.Config)
	return c, rep, err
}

// runOn runs a campaign a Spec cannot say, over a network the harness
// configured itself (a loss rate, an ECMP mode, a generator setting, a fault
// plan) with the given probe options, from vantage to targets.
func runOn(net *netsim.Network, vantage string, targets []ipv4.Addr, popts probe.Options) (*collect.Report, error) {
	port, err := net.PortFor(vantage)
	if err != nil {
		return nil, err
	}
	popts.Cache = true
	return runCampaign(collect.Config{
		Targets: targets,
		Probe:   popts,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			return probe.New(port, port.LocalAddr(), opts), nil
		},
	})
}

// runCampaign runs cfg at Parallel 1, which keeps a campaign deterministic
// on lossy and faulted networks too. A failed row is the harness's error; a
// breaker row's partial trace is kept and scored like a done row's.
func runCampaign(cfg collect.Config) (*collect.Report, error) {
	cfg.Parallel = 1
	rep, err := collect.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range rep.Targets {
		if t.Status == collect.StatusFailed {
			return nil, fmt.Errorf("experiments: tracing %v: %s", t.Dst, t.Note)
		}
	}
	return rep, nil
}
