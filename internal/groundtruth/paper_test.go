package groundtruth

import (
	"math"
	"testing"
)

// truthOf builds true subnets with no members or annotations.
func truthOf(ps ...string) []TrueSubnet {
	out := make([]TrueSubnet, len(ps))
	for i, p := range ps {
		out[i] = TrueSubnet{Prefix: prefix(p)}
	}
	return out
}

// paperOf scores bare collected prefixes, in the given order, against the
// true subnets and projects the score onto the paper's classes.
func paperOf(subs []TrueSubnet, collected ...string) PaperEval {
	truth := FromSubnets(subs)
	rows := make([]CollectedSubnet, len(collected))
	for i, c := range collected {
		rows[i].Prefix = prefix(c)
	}
	return truth.Paper(truth.Score(rows))
}

func TestClassifyExact(t *testing.T) {
	got := paperOf(truthOf("10.0.0.0/30"), "10.0.0.0/30").Outcomes
	if got[0].Class != ClassExact || got[0].CollectedBits[0] != 30 {
		t.Fatalf("outcome = %+v", got[0])
	}
}

func TestClassifyMissing(t *testing.T) {
	got := paperOf(truthOf("10.0.0.0/30"), "10.9.0.0/30").Outcomes
	if got[0].Class != ClassMiss || len(got[0].CollectedBits) != 0 {
		t.Fatalf("outcome = %+v", got[0])
	}
}

func TestClassifyMissingUnresponsive(t *testing.T) {
	got := paperOf([]TrueSubnet{{Prefix: prefix("10.0.0.0/30"), Unresponsive: true}}).Outcomes
	if got[0].Class != ClassMissUnresponsive {
		t.Fatalf("class = %v", got[0].Class)
	}
}

func TestClassifyUnder(t *testing.T) {
	got := paperOf(truthOf("10.0.0.0/28"), "10.0.0.0/30").Outcomes
	if got[0].Class != ClassUnder || got[0].CollectedBits[0] != 30 {
		t.Fatalf("outcome = %+v", got[0])
	}
}

func TestClassifyUnderUnresponsive(t *testing.T) {
	got := paperOf([]TrueSubnet{{Prefix: prefix("10.0.0.0/28"), PartiallyUnresponsive: true}}, "10.0.0.0/29").Outcomes
	if got[0].Class != ClassUnderUnresponsive {
		t.Fatalf("class = %v", got[0].Class)
	}
}

func TestClassifySplit(t *testing.T) {
	got := paperOf(truthOf("10.0.0.0/28"), "10.0.0.0/30", "10.0.0.8/30").Outcomes
	if got[0].Class != ClassSplit || len(got[0].CollectedBits) != 2 {
		t.Fatalf("outcome = %+v", got[0])
	}
}

func TestClassifyOver(t *testing.T) {
	got := paperOf(truthOf("10.0.0.0/30"), "10.0.0.0/29").Outcomes
	if got[0].Class != ClassOver || got[0].CollectedBits[0] != 29 {
		t.Fatalf("outcome = %+v", got[0])
	}
}

func TestClassifyMerged(t *testing.T) {
	// Two adjacent /31 true subnets collected as one /30: both merged.
	got := paperOf(truthOf("10.0.0.0/31", "10.0.0.2/31"), "10.0.0.0/30").Outcomes
	if got[0].Class != ClassMerged || got[1].Class != ClassMerged {
		t.Fatalf("outcome = %+v %+v", got[0], got[1])
	}
}

func TestClassifyExactBeatsContaining(t *testing.T) {
	// If a true subnet is matched exactly AND some larger collected subnet
	// covers it, exact wins.
	got := paperOf(truthOf("10.0.0.0/30"), "10.0.0.0/28", "10.0.0.0/30").Outcomes
	if got[0].Class != ClassExact {
		t.Fatalf("class = %v", got[0].Class)
	}
}

func TestClassifyFirstCoveringSuperset(t *testing.T) {
	// Two collected prefixes cover the /30; the first in collected order
	// decides, so the same rows in the other order give the other class.
	subs := truthOf("10.0.0.0/30", "10.0.0.8/30")
	if got := paperOf(subs, "10.0.0.0/29", "10.0.0.0/28").Outcomes[0]; got.Class != ClassOver || got.CollectedBits[0] != 29 {
		t.Fatalf("/29 first: outcome = %+v", got)
	}
	if got := paperOf(subs, "10.0.0.0/28", "10.0.0.0/29").Outcomes[0]; got.Class != ClassMerged || got.CollectedBits[0] != 28 {
		t.Fatalf("/28 first: outcome = %+v", got)
	}
}

func TestDistributionCountsAndRates(t *testing.T) {
	p := paperOf([]TrueSubnet{
		{Prefix: prefix("10.0.0.0/30")},
		{Prefix: prefix("10.0.0.4/30")},
		{Prefix: prefix("10.0.1.0/30"), Unresponsive: true},
		{Prefix: prefix("10.0.2.0/28"), PartiallyUnresponsive: true},
	},
		"10.0.0.0/30", // exact
		"10.0.0.4/30", // exact
		"10.0.2.0/30", // under the /28
	)
	d := p.Dist
	if d.Total() != 4 {
		t.Fatalf("total = %d", d.Total())
	}
	if d.Count(ClassExact) != 2 || d.Count(ClassMissUnresponsive) != 1 || d.Count(ClassUnderUnresponsive) != 1 {
		t.Fatalf("counts: exact=%d missUnrs=%d undesUnrs=%d",
			d.Count(ClassExact), d.Count(ClassMissUnresponsive), d.Count(ClassUnderUnresponsive))
	}
	if math.Abs(p.ExactRate-0.5) > 1e-9 {
		t.Fatalf("exact rate = %v", p.ExactRate)
	}
	// Excluding both unresponsive classes: 2/2.
	if math.Abs(p.ExactRateResponsive-1.0) > 1e-9 {
		t.Fatalf("responsive exact rate = %v", p.ExactRateResponsive)
	}
	if d.Original[30] != 3 || d.Original[28] != 1 {
		t.Fatalf("orgl row = %v", d.Original)
	}
}

func TestDistributionEmpty(t *testing.T) {
	p := paperOf(nil)
	if p.Dist.Total() != 0 || p.ExactRate != 0 || p.ExactRateResponsive != 0 {
		t.Fatalf("empty evaluation misbehaves: %+v", p)
	}
}

func TestPrefixSimilarityIdentical(t *testing.T) {
	p := paperOf(truthOf("10.0.0.0/30", "10.0.1.0/29", "10.0.2.0/24"),
		"10.0.0.0/30", "10.0.1.0/29", "10.0.2.0/24")
	if p.PrefixSimilarity != 1 {
		t.Fatalf("identical similarity = %v", p.PrefixSimilarity)
	}
	if p.SizeSimilarity != 1 {
		t.Fatalf("identical size similarity = %v", p.SizeSimilarity)
	}
}

func TestPrefixSimilarityAllMissing(t *testing.T) {
	// Every subnet charged its maximum distance: similarity 0.
	p := paperOf(truthOf("10.0.0.0/30", "10.0.1.0/24"))
	if p.PrefixSimilarity != 0 {
		t.Fatalf("all-missing similarity = %v", p.PrefixSimilarity)
	}
	if p.SizeSimilarity != 0 {
		t.Fatalf("all-missing size similarity = %v", p.SizeSimilarity)
	}
}

func TestPrefixSimilarityPartial(t *testing.T) {
	// Bounds pl=24, pu=30. The /28 collected as /29 deviates by 1 of max 4;
	// the exact ones contribute 0.
	p := paperOf(truthOf("10.0.0.0/30", "10.0.1.0/24", "10.0.2.0/28"),
		"10.0.0.0/30", "10.0.1.0/24", "10.0.2.0/29")
	// d = [0, 0, 1]; max = [30-24=6, 30-24=6, max(28-24,30-28)=4]; 1 - 1/16.
	want := 1 - 1.0/16.0
	if math.Abs(p.PrefixSimilarity-want) > 1e-9 {
		t.Fatalf("similarity = %v, want %v", p.PrefixSimilarity, want)
	}
}

func TestSizeSimilarityWeighsLargeSubnets(t *testing.T) {
	// A /24 collected as /25 (missing 128 addresses) must hurt size
	// similarity more than a /29 collected as /30 (missing 4).
	base := truthOf("10.0.0.0/24", "10.0.1.0/29", "10.0.2.0/30")
	big := paperOf(base, "10.0.0.0/25", "10.0.1.0/29", "10.0.2.0/30").SizeSimilarity
	small := paperOf(base, "10.0.0.0/24", "10.0.1.0/30", "10.0.2.0/30").SizeSimilarity
	if big >= small {
		t.Fatalf("size similarity: /24 deviation %v should score below /29 deviation %v", big, small)
	}
}

func TestResponsiveSimilarityVariants(t *testing.T) {
	p := paperOf([]TrueSubnet{
		{Prefix: prefix("10.0.0.0/30")},
		{Prefix: prefix("10.0.1.0/28"), Unresponsive: true},
		{Prefix: prefix("10.0.2.0/24")},
	}, "10.0.0.0/30", "10.0.2.0/24")
	if p.PrefixSimilarityResponsive != 1 {
		t.Fatalf("responsive similarity = %v, want 1 (everything responsive matched exactly)", p.PrefixSimilarityResponsive)
	}
	if p.PrefixSimilarity >= p.PrefixSimilarityResponsive {
		t.Fatalf("plain similarity %v should be dragged down by the unresponsive miss", p.PrefixSimilarity)
	}
	if p.SizeSimilarityResponsive != 1 {
		t.Fatalf("responsive size similarity = %v, want 1", p.SizeSimilarityResponsive)
	}
}

func TestSimilarityEmptyInputs(t *testing.T) {
	p := paperOf(nil)
	if p.PrefixSimilarity != 1 || p.PrefixSimilarityResponsive != 1 {
		t.Fatalf("empty prefix similarity = %v / %v, want 1", p.PrefixSimilarity, p.PrefixSimilarityResponsive)
	}
	if p.SizeSimilarity != 1 || p.SizeSimilarityResponsive != 1 {
		t.Fatalf("empty size similarity = %v / %v, want 1", p.SizeSimilarity, p.SizeSimilarityResponsive)
	}
}

func TestBoundsOf(t *testing.T) {
	outs := paperOf(truthOf("10.0.0.0/30", "10.0.1.0/24"), "10.0.0.0/31").Outcomes
	if b := boundsOf(outs); b.lower != 24 || b.upper != 31 {
		t.Fatalf("bounds = %+v", b)
	}
}

func TestSizeDistanceSplit(t *testing.T) {
	// A /28 split into a /30 and a /31: the size distance uses the largest
	// collected piece (the /30 = 4 addresses) against the true 16.
	outs := paperOf(truthOf("10.0.0.0/28"), "10.0.0.0/30", "10.0.0.8/31").Outcomes
	if outs[0].Class != ClassSplit {
		t.Fatalf("class = %v", outs[0].Class)
	}
	b := boundsOf(outs)
	if got, _ := distance(outs[0], b, subnetSize); got != 12 { // |16 - 4|
		t.Fatalf("split size distance = %v, want 12", got)
	}
	if got, _ := distance(outs[0], b, prefixLen); got != 3 { // |28 - max{30,31}| = |28-31|
		t.Fatalf("split prefix distance = %v, want 3", got)
	}
}

func TestMergedDistance(t *testing.T) {
	outs := paperOf(truthOf("10.0.0.0/31", "10.0.0.2/31", "10.0.8.0/24"),
		"10.0.0.0/30", "10.0.8.0/24").Outcomes
	b := boundsOf(outs)
	// Each merged /31 is charged |31-30| = 1.
	if got, _ := distance(outs[0], b, prefixLen); got != 1 {
		t.Fatalf("merged prefix distance = %v, want 1", got)
	}
	if got, _ := distance(outs[0], b, subnetSize); got != 2 {
		t.Fatalf("merged size distance = %v, want |2-4| = 2", got)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassExact: "exmt", ClassMiss: "miss", ClassMissUnresponsive: `miss\unrs`,
		ClassUnder: "undes", ClassUnderUnresponsive: `undes\unrs`, ClassOver: "ovres",
		ClassSplit: "splt", ClassMerged: "merg", Class(99): "class(99)",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("class %d = %q, want %q", c, c.String(), w)
		}
	}
	if len(Classes) != len(classNames) {
		t.Errorf("Classes lists %d rows, want %d", len(Classes), len(classNames))
	}
}
