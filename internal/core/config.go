package core

// Config tunes a tracenet session. The zero value selects the paper's
// behaviour, including §3.5's reuse of a subnet the session has already
// collected (always on). The ablation switches — DisableHalfFillStop,
// SingleIngress, TopDown, and MinPrefixBits — disable or bound individual
// design choices for the four ablations of DESIGN.md §4.
type Config struct {
	// MaxTTL bounds the trace length. Default 30.
	MaxTTL int
	// MaxConsecutiveGaps ends the trace after this many anonymous hops in a
	// row. Default 4.
	MaxConsecutiveGaps int
	// MinPrefixBits bounds subnet growth: exploration never grows past this
	// prefix length (Algorithm 1's loop would run m down to 0; operationally
	// /20 is the largest subnet the paper observes). Default 20.
	MinPrefixBits int

	// DisableHalfFillStop removes Algorithm 1's lines 19–21 stopping rule
	// (ablation: sparse subnets then overgrow until a heuristic fires).
	DisableHalfFillStop bool

	// SingleIngress makes H6 accept only the positioning ingress i, not the
	// trace-collection entry u (ablation of the §3.7 two-ingress tolerance).
	SingleIngress bool

	// TopDown replaces bottom-up growth with the §3.8 strawman: assume a
	// large subnet (MinPrefixBits) and shrink while heuristics fail
	// (ablation; markedly more probes on small subnets).
	TopDown bool

	// Defend enables the adversarial defenses: cross-validation of trace and
	// membership observations from a second probe/TTL position, and
	// quarantine of addresses whose responses are internally inconsistent.
	// Default off — the paper's behaviour, which trusts every reply. See
	// DESIGN.md §11.
	Defend bool

	// Shared, when non-nil, lets this session share subnet explorations with
	// other sessions of the same campaign (see SharedSubnetCache). Before an
	// owned growth the session clears its prober's response cache so the
	// growth's wire cost is a pure function of the hop context.
	Shared SharedSubnetCache
}

func (c Config) withDefaults() Config {
	if c.MaxTTL == 0 {
		c.MaxTTL = 30
	}
	if c.MaxConsecutiveGaps == 0 {
		c.MaxConsecutiveGaps = 4
	}
	if c.MinPrefixBits == 0 {
		c.MinPrefixBits = 20
	}
	return c
}
