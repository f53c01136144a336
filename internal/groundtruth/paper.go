package groundtruth

import (
	"fmt"
	"math"

	"tracenet/internal/ipv4"
)

// Class is the paper's Table 1/2 outcome class of one true subnet — the row
// labels of both tables.
type Class uint8

const (
	// ClassExact: collected with exactly the true prefix ("exmt").
	ClassExact Class = iota
	// ClassMiss: not collected at all, attributable to the heuristics
	// ("miss").
	ClassMiss
	// ClassMissUnresponsive: not collected because the subnet is totally
	// unresponsive ("miss\unrs").
	ClassMissUnresponsive
	// ClassUnder: inferred smaller than the true subnet ("undes").
	ClassUnder
	// ClassUnderUnresponsive: inferred smaller because part of the subnet
	// is unresponsive ("undes\unrs").
	ClassUnderUnresponsive
	// ClassOver: inferred larger than the true subnet ("ovres").
	ClassOver
	// ClassSplit: collected as several smaller subnets ("splt").
	ClassSplit
	// ClassMerged: collected as one subnet together with a neighbouring
	// true subnet ("merg").
	ClassMerged
)

// Classes is the row order of Tables 1 and 2.
var Classes = []Class{
	ClassExact, ClassMiss, ClassMissUnresponsive, ClassUnder,
	ClassUnderUnresponsive, ClassOver, ClassSplit, ClassMerged,
}

var classNames = [...]string{"exmt", "miss", `miss\unrs`, "undes", `undes\unrs`, "ovres", "splt", "merg"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Outcome is one true subnet's Table 1/2 class.
type Outcome struct {
	// Truth is the true subnet's prefix.
	Truth ipv4.Prefix
	Class Class
	// CollectedBits are the prefix lengths of the collected subnets that
	// decided the class: one for exact, under, over and merged, several for
	// split, none for missed.
	CollectedBits []int
}

// Classify projects a score of this truth onto the paper's Table 1/2
// classes: one Outcome per true subnet, in truth order. The first rule that
// applies decides:
//
//   - exmt: the subnet has an exact row;
//   - undes: exactly one subset row names it (undes\unrs when the subnet is
//     PartiallyUnresponsive); splt: more than one does;
//   - ovres: the first superset row, in collected order, whose prefix covers
//     it; merg when that row overlaps more than one true subnet;
//   - miss: it has a missed row (miss\unrs when Unresponsive).
//
// The projection assumes the true prefixes are disjoint, which holds for
// every topology in the repository. A collected prefix then equals, lies
// strictly inside, or strictly covers each true subnet it overlaps, so the
// score's rows already decide every class.
func (t *Truth) Classify(s *Score) []Outcome {
	exact := make([]bool, len(t.Subnets))
	inside := make([][]int, len(t.Subnets))
	over := make([]*Row, len(t.Subnets))
	for k := range s.Rows {
		row := &s.Rows[k]
		switch row.Verdict {
		case VerdictExact:
			i, _ := t.overlapping(row.Truth)
			exact[i] = true
		case VerdictSubset:
			i, _ := t.overlapping(row.Truth)
			inside[i] = append(inside[i], row.Collected.Bits())
		case VerdictSuperset:
			lo, hi := t.overlapping(row.Collected)
			for i := lo; i < hi; i++ {
				if over[i] == nil {
					over[i] = row
				}
			}
		}
	}

	out := make([]Outcome, len(t.Subnets))
	for i := range t.Subnets {
		ts := &t.Subnets[i]
		o := Outcome{Truth: ts.Prefix}
		switch {
		case exact[i]:
			o.Class, o.CollectedBits = ClassExact, []int{ts.Prefix.Bits()}
		case len(inside[i]) == 1:
			o.Class, o.CollectedBits = ClassUnder, inside[i]
			if ts.PartiallyUnresponsive {
				o.Class = ClassUnderUnresponsive
			}
		case len(inside[i]) > 1:
			o.Class, o.CollectedBits = ClassSplit, inside[i]
		case over[i] != nil:
			o.Class, o.CollectedBits = ClassOver, []int{over[i].Collected.Bits()}
			if over[i].Overlaps > 1 {
				o.Class = ClassMerged
			}
		case ts.Unresponsive:
			o.Class = ClassMissUnresponsive
		default:
			o.Class = ClassMiss
		}
		out[i] = o
	}
	return out
}

// Distribution is the Table 1/2 cross-tabulation: per class, the number of
// true subnets of each prefix length.
type Distribution struct {
	// Original[bits] is the orgl row.
	Original map[int]int
	// PerClass[class][bits] are the class rows.
	PerClass map[Class]map[int]int
}

// Count returns the number of true subnets in a class.
func (d Distribution) Count(c Class) int {
	n := 0
	for _, v := range d.PerClass[c] {
		n += v
	}
	return n
}

// Total returns the number of true subnets.
func (d Distribution) Total() int {
	n := 0
	for _, v := range d.Original {
		n += v
	}
	return n
}

// PaperEval is the paper's §4.1 evaluation of one collection: the Table 1/2
// classes and the headline rates and similarities derived from them.
type PaperEval struct {
	// Outcomes holds one class per true subnet, in truth order.
	Outcomes []Outcome
	// Dist is the Table 1/2 cross-tabulation of Outcomes.
	Dist Distribution
	// ExactRate is the exact-match rate over all true subnets.
	// ExactRateResponsive excludes the miss\unrs and undes\unrs subnets,
	// which is how the paper's 94.9%/97.3% headlines are computed (132/139
	// and 145/149).
	ExactRate, ExactRateResponsive float64
	// PrefixSimilarity and SizeSimilarity are equations (3) and (5).
	PrefixSimilarity, SizeSimilarity float64
	// The *Responsive similarities leave out totally unresponsive subnets.
	// Equation (3) applied to the paper's own Table 2 yields ≈0.60, not the
	// reported 0.900; the GEANT headline (0.900/0.907) is only consistent
	// with equations (3) and (5) under this exclusion.
	PrefixSimilarityResponsive, SizeSimilarityResponsive float64
}

// Paper classifies s (see Classify) and derives the Table 1/2
// distribution, both exact-match rates and the similarities of equations
// (3) and (5) from the classes.
func (t *Truth) Paper(s *Score) PaperEval {
	p := PaperEval{
		Outcomes: t.Classify(s),
		Dist:     Distribution{Original: map[int]int{}, PerClass: map[Class]map[int]int{}},
	}
	var responsive []Outcome
	for i, o := range p.Outcomes {
		bits := o.Truth.Bits()
		p.Dist.Original[bits]++
		if p.Dist.PerClass[o.Class] == nil {
			p.Dist.PerClass[o.Class] = map[int]int{}
		}
		p.Dist.PerClass[o.Class][bits]++
		if !t.Subnets[i].Unresponsive {
			responsive = append(responsive, o)
		}
	}
	exact := p.Dist.Count(ClassExact)
	p.ExactRate = rate(exact, p.Dist.Total())
	p.ExactRateResponsive = rate(exact, p.Dist.Total()-
		p.Dist.Count(ClassMissUnresponsive)-p.Dist.Count(ClassUnderUnresponsive))
	p.PrefixSimilarity = similarity(p.Outcomes, prefixLen)
	p.SizeSimilarity = similarity(p.Outcomes, subnetSize)
	p.PrefixSimilarityResponsive = similarity(responsive, prefixLen)
	p.SizeSimilarityResponsive = similarity(responsive, subnetSize)
	return p
}

// rate returns n/of. Unlike ratio, it counts an empty universe as 0: no
// subnet matched, not a perfect score.
func rate(n, of int) float64 {
	if of <= 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// bounds are the shortest (pl) and longest (pu) prefix lengths over the
// true and collected prefixes of equation (1); Internet2 has pl=24, pu=31.
type bounds struct{ lower, upper int }

func boundsOf(outs []Outcome) bounds {
	b := bounds{lower: 32, upper: 0}
	add := func(bits int) {
		b.lower = min(b.lower, bits)
		b.upper = max(b.upper, bits)
	}
	for _, o := range outs {
		add(o.Truth.Bits())
		for _, c := range o.CollectedBits {
			add(c)
		}
	}
	return b
}

// prefixLen and subnetSize are the two scales of the distance factors:
// prefix length for equation (1), subnet size 2^(32−s) for equation (4), so
// a /23 versus /24 deviation weighs 256 addresses while /29 versus /30
// weighs 4.
func prefixLen(bits int) float64  { return float64(bits) }
func subnetSize(bits int) float64 { return math.Exp2(float64(32 - bits)) }

// distance returns the distance factor of one outcome on scale f —
// d(Si) = |f(so) − max f(sc)| of equation (1), or d̂(Si) of equation (4) —
// and its normalizer max{|f(so) − f(pl)|, |f(so) − f(pu)|}. A missed
// subnet is charged the normalizer, "in favor of dissimilarity"; a split
// one is measured against its piece with the largest f.
func distance(o Outcome, b bounds, f func(int) float64) (d, worst float64) {
	so := f(o.Truth.Bits())
	worst = math.Max(math.Abs(so-f(b.lower)), math.Abs(so-f(b.upper)))
	if len(o.CollectedBits) == 0 {
		return worst, worst
	}
	sc := math.Inf(-1)
	for _, c := range o.CollectedBits {
		sc = math.Max(sc, f(c))
	}
	return math.Abs(so - sc), worst
}

// similarity is equation (3) (f = prefixLen) or (5) (f = subnetSize):
// 1 − Σ d(Si) / Σ max{|f(so) − f(pl)|, |f(so) − f(pu)|}. One means
// identical topologies, zero totally dissimilar.
func similarity(outs []Outcome, f func(int) float64) float64 {
	b := boundsOf(outs)
	var num, den float64
	for _, o := range outs {
		d, worst := distance(o, b, f)
		num += d
		den += worst
	}
	if den == 0 {
		return 1
	}
	return 1 - num/den
}
