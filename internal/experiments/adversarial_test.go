package experiments

import (
	"reflect"
	"testing"

	"tracenet/internal/netsim"
)

// TestAdversarialFloors is the committed adversarial accuracy gate (wired
// into scripts/check.sh and CI): every regime must stay within its floor —
// the attack must keep hurting the undefended collector, and the defenses
// must keep recovering.
func TestAdversarialFloors(t *testing.T) {
	results, err := AdversarialSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AdversarialRegimes) {
		t.Fatalf("sweep returned %d regimes, want %d", len(results), len(AdversarialRegimes))
	}
	for _, r := range results {
		floor, ok := AdversarialFloors[r.Regime]
		if !ok {
			t.Fatalf("regime %s has no committed floor", r.Regime)
		}
		for _, v := range r.Violations(floor) {
			t.Error(v)
		}
		t.Logf("%-14s undefended subnet P/R %.3f/%.3f  defended %.3f/%.3f  quarantined %d  defense probes %d",
			r.Regime, r.UndefendedSubnetPrecision, r.UndefendedSubnetRecall,
			r.DefendedSubnetPrecision, r.DefendedSubnetRecall, r.Quarantined, r.DefenseProbes)
	}

	// The headline property the issue gates: at least one regime where the
	// undefended collector invents structure (precision < 1) and the
	// defended run measurably recovers it.
	headline := false
	for _, r := range results {
		if r.UndefendedSubnetPrecision < 1 && r.DefendedSubnetPrecision > r.UndefendedSubnetPrecision {
			headline = true
		}
	}
	if !headline {
		t.Error("no regime shows undefended precision collapse with measurable defended recovery")
	}
}

func TestAdversarialRunProperties(t *testing.T) {
	// The liar regime must actually trigger quarantines, and attribution
	// must blame planned kinds only.
	run, err := RunAdversarial(RegimeLiar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.Quarantined == 0 {
		t.Error("defended liar run quarantined nothing")
	}
	if run.DefenseProbes == 0 {
		t.Error("defended liar run spent no defense probes")
	}
	for _, row := range run.Undefended.Rows {
		if row.Blame != "" && row.Blame != netsim.FaultLiar.String() {
			t.Errorf("liar regime blamed %q", row.Blame)
		}
	}

	// The byzantine regime's blame summary must be non-empty and name only
	// planned adversarial kinds.
	res, err := AdversarialEnsemble(RegimeByzantine, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blames) == 0 {
		t.Error("byzantine ensemble attributed no rows")
	}
	for _, b := range res.Blames {
		switch b.Blame {
		case "liar", "alias-confuse", "hidden-hop", "echo":
		default:
			t.Errorf("unexpected blame %q", b.Blame)
		}
	}
}

func TestAdversarialDeterminism(t *testing.T) {
	a, err := AdversarialEnsemble(RegimeByzantine, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdversarialEnsemble(RegimeByzantine, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed adversarial ensembles differ")
	}
}

func TestAdversarialPlanRejectsUnknownRegime(t *testing.T) {
	if _, err := AdversarialPlan(Regime("bogus"), 1); err == nil {
		t.Fatal("unknown regime accepted")
	}
}

// TestAdversarialPlansValidate checks every regime's plan over seeds 1–50:
// none sets a field its kind ignores, which validation refuses.
func TestAdversarialPlansValidate(t *testing.T) {
	for _, regime := range AdversarialRegimes {
		for seed := int64(1); seed <= 50; seed++ {
			plan, err := AdversarialPlan(regime, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", regime, seed, err)
			}
		}
	}
}
