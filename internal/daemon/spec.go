// Package daemon turns the one-shot campaign engine (internal/collect) into
// tracenetd: a long-running collection service. It owns an HTTP submission
// API mounted beside the observability plane (internal/obs), a
// priority/freshness scheduler draining a campaign queue, per-tenant
// accounting (concurrent-campaign caps, an aggregate probe budget, a shared
// token-bucket rate limit), and a crash-safe spool that journals every
// accepted spec so queued and in-flight campaigns survive a restart.
//
// Determinism contract: the daemon never reads the wall clock. Scheduling
// time is an injected telemetry.Clock — by default a cumulative clock that
// advances by each finished campaign's virtual-tick span — and every
// campaign runs on its own seeded netsim substrate, so a same-seed daemon
// fed the same submissions produces byte-identical reports, checkpoints,
// and metric expositions. The final report (collect.Report.WriteTo), the
// checkpoint and the eval document are additionally resume-invariant on a
// clean substrate: a campaign interrupted by SIGTERM and resumed from the
// spool renders the same bytes as an uninterrupted run. Run accounting
// that differs across a resume (wire totals, cache hits) lives in the
// metrics exposition and the status document.
package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tracenet/internal/cli"
	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// Spec is one campaign submission: the JSON body of POST /api/v1/campaigns,
// also written to the spool as the accepted campaign's journal entry. It is
// tracenet's one campaign config surface: cmd/tracenet builds a Spec from
// its flags (or reads one with -spec), cmd/subnetmap and cmd/traceroute
// from theirs, and every tool runs it through Resolve. A zero field takes
// the default its comment names, which is also the CLI flag's default.
type Spec struct {
	// Tenant is the submitting tenant's identity (required). Budgets, rate
	// limits, and concurrency caps are enforced per tenant; see TenantConfig.
	Tenant string `json:"tenant"`
	// Name is an optional human label echoed in status documents.
	Name string `json:"name,omitempty"`

	// Topology selects a built-in topology generator (figure3, figure2,
	// chain, internet2, geant, isps, random); default figure3. File paths
	// are rejected: a network-submitted spec must not read server files.
	Topology string `json:"topology,omitempty"`
	// Seed seeds the simulated substrate (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Vantage overrides the topology's default vantage host.
	Vantage string `json:"vantage,omitempty"`
	// Proto is the probe protocol: icmp (default), udp, tcp.
	Proto string `json:"proto,omitempty"`
	// Targets are the destinations to trace; empty selects the topology's
	// suggested targets. Duplicates are rejected (a resumed campaign
	// restores its checkpoint's rows by destination).
	Targets []string `json:"targets,omitempty"`

	// MaxTTL bounds each trace (default 30). Parallel is the campaign's
	// worker count (default 1). Budget caps the campaign's wire probes
	// (0 = unlimited; the tenant's aggregate budget applies regardless).
	MaxTTL   int    `json:"max_ttl,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	Budget   uint64 `json:"budget,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a priority.
	Priority int `json:"priority,omitempty"`

	// Defend hardens inference against lying responders (core.Config.Defend);
	// Chaos installs a random fault plan from the given seed (0 = off);
	// Backoff and Breaker arm the prober's resilience machinery.
	Defend  bool  `json:"defend,omitempty"`
	Chaos   int64 `json:"chaos,omitempty"`
	Backoff bool  `json:"backoff,omitempty"`
	Breaker bool  `json:"breaker,omitempty"`

	// DisableCache runs the campaign without sharing between targets (no
	// shared subnet cache, no probe memo), exactly like the CLI's
	// -campaign-no-cache flag.
	DisableCache bool `json:"disable_cache,omitempty"`

	// Eval scores the collected subnets against the simulated ground truth
	// and stores the JSON artifact beside the report.
	Eval bool `json:"eval,omitempty"`

	// RescanInterval enrolls the campaign's targets for periodic re-scan:
	// after the campaign completes, a fresh campaign over the same spec is
	// queued with a freshness deadline RescanInterval scheduler ticks in the
	// future, up to MaxRescans generations. 0 disables re-scanning.
	RescanInterval uint64 `json:"rescan_interval,omitempty"`
	MaxRescans     int    `json:"max_rescans,omitempty"`
}

// maxSpecBytes bounds a submission body; a campaign spec is small, so
// anything larger is a client error, not a memory obligation.
const maxSpecBytes = 1 << 20

// ReadSpec decodes a JSON campaign spec, rejecting unknown fields (a
// misspelled knob silently ignored would make the daemon lie about what it
// ran), anything but whitespace after the spec (a second document must not
// ride along unread), and bodies over maxSpecBytes with ErrSpecTooLarge.
func ReadSpec(r io.Reader) (*Spec, error) {
	// One byte past the bound tells an oversized body from a truncated one.
	lr := &io.LimitedReader{R: r, N: maxSpecBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	var sp Spec
	err := dec.Decode(&sp)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the spec")
		}
	}
	if lr.N == 0 {
		return nil, ErrSpecTooLarge
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: spec: %w", err)
	}
	return &sp, nil
}

// WriteSpec serializes a spec as indented JSON — the spool's canonical form —
// or fails with ErrSpecTooLarge when ReadSpec would refuse that form (it can
// outgrow the body it was decoded from: indentation, '<' escaped as \u003c).
func WriteSpec(w io.Writer, sp *Spec) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sp); err != nil {
		return err
	}
	if buf.Len() > maxSpecBytes {
		return ErrSpecTooLarge
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Validate checks the spec's internal consistency without touching the
// network substrate: the checks Resolve runs for every tool, plus the
// daemon's own — a tenant, a built-in topology (a submitted spec must not
// read server files) and rescans paired with an interval.
func (sp *Spec) Validate() error {
	if sp.Tenant == "" {
		return fmt.Errorf("daemon: spec: tenant is required")
	}
	if !validName(sp.Tenant) {
		return fmt.Errorf("daemon: spec: tenant %q: use letters, digits, '-', '_', '.'", sp.Tenant)
	}
	if sp.Topology != "" && !builtinTopology(sp.Topology) {
		return fmt.Errorf("daemon: spec: topology %q is not a built-in generator (%v)",
			sp.Topology, cli.BuiltinNames())
	}
	if _, err := parseProto(sp.Proto); err != nil {
		return err
	}
	if _, err := sp.targets(); err != nil {
		return err
	}
	if sp.MaxRescans < 0 {
		return fmt.Errorf("daemon: spec: max_rescans must be non-negative, got %d", sp.MaxRescans)
	}
	if sp.RescanInterval == 0 && sp.MaxRescans > 0 {
		return fmt.Errorf("daemon: spec: max_rescans without rescan_interval")
	}
	return nil
}

// targets runs the checks every campaign passes, whichever tool resolves
// it — max_ttl and parallel non-negative, each target a distinct address (a
// resumed campaign restores its checkpoint's rows by destination) — and
// returns the parsed targets.
func (sp *Spec) targets() ([]ipv4.Addr, error) {
	if sp.MaxTTL < 0 {
		return nil, fmt.Errorf("daemon: spec: max_ttl must be non-negative, got %d", sp.MaxTTL)
	}
	if sp.Parallel < 0 {
		return nil, fmt.Errorf("daemon: spec: parallel must be non-negative, got %d", sp.Parallel)
	}
	targets := make([]ipv4.Addr, 0, len(sp.Targets))
	seen := make(map[ipv4.Addr]bool, len(sp.Targets))
	for _, t := range sp.Targets {
		a, err := ipv4.ParseAddr(t)
		if err != nil {
			return nil, fmt.Errorf("daemon: spec: target %q: %w", t, err)
		}
		if seen[a] {
			return nil, fmt.Errorf("daemon: spec: duplicate target %q", t)
		}
		seen[a] = true
		targets = append(targets, a)
	}
	return targets, nil
}

// validName reports whether s is safe as a tenant identity and a metric
// label value: non-empty, ASCII letters/digits plus '-', '_', '.'.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// builtinTopology reports whether name is one of the built-in generators.
func builtinTopology(name string) bool {
	for _, b := range cli.BuiltinNames() {
		if name == b {
			return true
		}
	}
	return false
}

// seed returns the effective simulation seed.
func (sp *Spec) seed() int64 {
	if sp.Seed == 0 {
		return 1
	}
	return sp.Seed
}

// topology returns the effective topology name.
func (sp *Spec) topology() string {
	if sp.Topology == "" {
		return "figure3"
	}
	return sp.Topology
}

// maxTTL returns the effective trace length bound.
func (sp *Spec) maxTTL() int {
	if sp.MaxTTL == 0 {
		return 30
	}
	return sp.MaxTTL
}

// parseProto maps a spec's protocol name onto the probe protocol.
func parseProto(name string) (probe.Protocol, error) {
	switch name {
	case "", "icmp":
		return probe.ICMP, nil
	case "udp":
		return probe.UDP, nil
	case "tcp":
		return probe.TCP, nil
	}
	return 0, fmt.Errorf("daemon: spec: unknown protocol %q", name)
}

// Campaign is a resolved Spec: its scenario, a freshly seeded substrate
// with the spec's chaos plan installed, the vantage port, and the
// collect.Config carrying every spec-derived knob, the spec digest
// included. Callers add their own wiring (telemetry, progress, resume,
// budget parent, pacer) to Config before collect.Run.
type Campaign struct {
	Scenario *cli.Scenario
	Net      *netsim.Network
	Port     *netsim.Port
	Config   collect.Config
}

// InstallFaults installs a fault plan the spec does not name (the CLI's
// -faults) on the campaign's substrate, and folds the plan into
// Config.Digest: a checkpoint written under one plan does not resume under
// another.
func (c *Campaign) InstallFaults(plan netsim.FaultPlan) error {
	if err := c.Net.InstallFaults(plan); err != nil {
		return err
	}
	b, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	c.Config.Digest = digest(c.Config.Digest, string(b))
	return nil
}

// collection holds the resolved spec fields that decide what a campaign
// collects; its JSON is what the spec digest hashes. Targets, parallelism,
// budget, cache and evaluation settings are left out: the checkpoint checks
// its rows against the targets itself, and the rest change how a campaign
// runs, not what a target's trace observes.
type collection struct {
	Topology string `json:"topology"`
	Seed     int64  `json:"seed"`
	Vantage  string `json:"vantage"`
	Proto    string `json:"proto"`
	Chaos    int64  `json:"chaos"`
	Defend   bool   `json:"defend"`
	Backoff  bool   `json:"backoff"`
	Breaker  bool   `json:"breaker"`
	MaxTTL   int    `json:"max_ttl"`
}

// digest returns the hex SHA-256 of its parts, NUL-separated.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Resolve turns the spec into a runnable campaign identified as id ("" for
// an anonymous run). It runs the checks every campaign passes but not the
// daemon's own (see Validate): the command-line tools also resolve
// flag-built specs that name a topology file.
func (sp *Spec) Resolve(id string) (*Campaign, error) {
	proto, err := parseProto(sp.Proto)
	if err != nil {
		return nil, err
	}
	targets, err := sp.targets()
	if err != nil {
		return nil, err
	}
	sc, err := cli.Load(sp.topology(), sp.seed())
	if err != nil {
		return nil, err
	}
	vantage := sp.Vantage
	if vantage == "" {
		vantage = sc.Vantage
	}
	if len(targets) == 0 {
		targets = sc.Destinations
	}
	if len(targets) == 0 {
		return nil, errors.New("daemon: spec resolves to no targets")
	}

	net := netsim.New(sc.Topo, netsim.Config{Seed: sp.seed()})
	if sp.Chaos != 0 {
		if err := net.InstallFaults(netsim.RandomFaultPlan(sc.Topo, sp.Chaos)); err != nil {
			return nil, err
		}
	}
	port, err := net.PortFor(vantage)
	if err != nil {
		return nil, err
	}

	// Resolved values: an unset seed reads as 1 and an unset protocol as
	// icmp, so equal specs digest equally however they were written.
	fields, err := json.Marshal(collection{
		Topology: sp.topology(), Seed: sp.seed(), Vantage: vantage, Proto: proto.String(),
		Chaos: sp.Chaos, Defend: sp.Defend, Backoff: sp.Backoff, Breaker: sp.Breaker, MaxTTL: sp.maxTTL(),
	})
	if err != nil {
		return nil, err
	}

	popts := probe.Options{Protocol: proto, Cache: true}
	if sp.Backoff {
		popts.Retry = &probe.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffMax: 64, Jitter: 0.25}
	}
	if sp.Breaker {
		popts.Breaker = &probe.BreakerConfig{}
	}
	return &Campaign{
		Scenario: sc,
		Net:      net,
		Port:     port,
		Config: collect.Config{
			ID:           id,
			Targets:      targets,
			Parallel:     sp.Parallel,
			Budget:       sp.Budget,
			DisableCache: sp.DisableCache,
			Digest:       digest(string(fields)),
			Session:      core.Config{MaxTTL: sp.maxTTL(), Defend: sp.Defend},
			Probe:        popts,
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				return probe.New(port, port.LocalAddr(), opts), nil
			},
		},
	}, nil
}
