package groundtruth

import (
	"bytes"
	"encoding/json"
	"testing"

	"tracenet/internal/ipv4"
)

// fuzzTruth is the fixed ground truth every fuzz iteration scores against: a
// LAN, two point-to-point links, and an unresponsive subnet.
func fuzzTruth() *Truth {
	return FromSubnets([]TrueSubnet{
		{Prefix: prefix("10.0.0.0/30"), Addrs: addrs("10.0.0.1", "10.0.0.2"), PointToPoint: true},
		{Prefix: prefix("10.0.1.0/31"), Addrs: addrs("10.0.1.0", "10.0.1.1"), PointToPoint: true},
		{Prefix: prefix("10.0.2.0/29"),
			Addrs: addrs("10.0.2.1", "10.0.2.2", "10.0.2.3", "10.0.2.4", "10.0.2.5", "10.0.2.6")},
		{Prefix: prefix("10.0.3.0/31"), Addrs: addrs("10.0.3.0", "10.0.3.1"),
			PointToPoint: true, Unresponsive: true},
	})
}

// perturb applies one mutation per op byte to the collected set,
// deterministically: drop a member, widen or narrow a prefix, drop a whole
// subnet, or append a phantom. The result is an arbitrary — possibly
// degenerate — collection the scorer must classify without violating its
// invariants.
func perturb(collected []CollectedSubnet, ops []byte) []CollectedSubnet {
	for i, op := range ops {
		if len(collected) == 0 {
			break
		}
		j := i % len(collected)
		c := &collected[j]
		switch op % 5 {
		case 0: // drop one member
			if len(c.Addrs) > 0 {
				k := int(op) % len(c.Addrs)
				c.Addrs = append(c.Addrs[:k:k], c.Addrs[k+1:]...)
			}
		case 1: // narrow: one bit longer, re-based on the first member
			if c.Prefix.Bits() < 32 {
				base := c.Prefix.Base()
				if len(c.Addrs) > 0 {
					base = c.Addrs[0]
				}
				c.Prefix = ipv4.NewPrefix(base, c.Prefix.Bits()+1)
			}
		case 2: // widen: one bit shorter
			if c.Prefix.Bits() > 8 {
				c.Prefix = c.Prefix.Parent()
			}
		case 3: // drop the whole subnet
			collected = append(collected[:j:j], collected[j+1:]...)
		case 4: // append a phantom far from any truth
			base := ipv4.AddrFromOctets([4]byte{192, 168, op, 0})
			collected = append(collected, CollectedSubnet{
				Prefix: ipv4.NewPrefix(base, 30),
				Addrs:  []ipv4.Addr{base + 1, base + 2},
			})
		}
	}
	// Members outside the (possibly narrowed) prefix are not a valid
	// collected observation; clamp membership to the prefix the way any
	// real adapter (FromTopomap) guarantees.
	for i := range collected {
		kept := collected[i].Addrs[:0]
		for _, a := range collected[i].Addrs {
			if collected[i].Prefix.Contains(a) {
				kept = append(kept, a)
			}
		}
		collected[i].Addrs = kept
	}
	return collected
}

// FuzzScoreInvariants perturbs a perfect collection and checks the scoring
// invariants that must hold for ANY input: verdict accounting sums to the
// universe sizes, ratios stay in [0,1] and agree with their definitions,
// prefix-error signs match verdicts, the paper's Table 1/2 classes agree
// with the verdicts, and both renderings are deterministic.
func FuzzScoreInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{4, 4, 4, 4})
	f.Add([]byte{3, 3, 3, 3, 3})
	f.Add([]byte{2, 2, 2, 1, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		truth := fuzzTruth()
		var base []CollectedSubnet
		for _, ts := range truth.Subnets {
			base = append(base, CollectedSubnet{
				Prefix: ts.Prefix,
				Addrs:  append([]ipv4.Addr(nil), ts.Addrs...),
			})
		}
		collected := perturb(base, ops)
		score := truth.Score(collected)

		// Universe accounting: every collected subnet is exactly one
		// non-missed row, every uncovered truth exactly one missed row.
		if score.CollectedSubnets != len(collected) {
			t.Fatalf("CollectedSubnets = %d, want %d", score.CollectedSubnets, len(collected))
		}
		if score.TruthSubnets != 4 {
			t.Fatalf("TruthSubnets = %d, want 4", score.TruthSubnets)
		}
		nonMissed := score.Count(VerdictExact) + score.Count(VerdictSubset) +
			score.Count(VerdictSuperset) + score.Count(VerdictPhantom)
		if nonMissed != score.CollectedSubnets {
			t.Fatalf("verdict counts %d don't sum to collected %d", nonMissed, score.CollectedSubnets)
		}
		if got := len(score.Rows); got != nonMissed+score.Count(VerdictMissed) {
			t.Fatalf("%d rows for %d verdicts", got, nonMissed+score.Count(VerdictMissed))
		}

		// Ratio definitions and bounds.
		for name, r := range map[string]float64{
			"subnet precision": score.SubnetPrecision, "subnet recall": score.SubnetRecall,
			"addr precision": score.AddrPrecision, "addr recall": score.AddrRecall,
		} {
			if r < 0 || r > 1 {
				t.Fatalf("%s = %v outside [0,1]", name, r)
			}
		}
		if score.ExactCollected != score.Count(VerdictExact) {
			t.Fatalf("ExactCollected %d != exact verdicts %d", score.ExactCollected, score.Count(VerdictExact))
		}
		if score.CollectedSubnets > 0 {
			want := float64(score.ExactCollected) / float64(score.CollectedSubnets)
			if score.SubnetPrecision != want {
				t.Fatalf("SubnetPrecision %v, want %v", score.SubnetPrecision, want)
			}
		}
		if score.CommonAddrs > score.TruthAddrs || score.CommonAddrs > score.CollectedAddrs {
			t.Fatalf("CommonAddrs %d exceeds a universe (truth %d, collected %d)",
				score.CommonAddrs, score.TruthAddrs, score.CollectedAddrs)
		}
		if score.MissedUnresponsive > score.Count(VerdictMissed) {
			t.Fatalf("MissedUnresponsive %d > missed %d", score.MissedUnresponsive, score.Count(VerdictMissed))
		}

		// Per-row symmetry: prefix-error sign is the verdict, missed rows
		// have no collected side, phantom rows no truth side.
		for _, row := range score.Rows {
			switch row.Verdict {
			case VerdictExact:
				if row.PrefixErr != 0 || row.Collected != row.Truth {
					t.Fatalf("exact row with err %d: %+v", row.PrefixErr, row)
				}
			case VerdictSubset:
				if row.PrefixErr <= 0 {
					t.Fatalf("subset row with err %d: %+v", row.PrefixErr, row)
				}
			case VerdictSuperset:
				if row.PrefixErr >= 0 {
					t.Fatalf("superset row with err %d: %+v", row.PrefixErr, row)
				}
			case VerdictPhantom:
				if row.Truth.IsValid() && row.Truth.Bits() != 0 {
					t.Fatalf("phantom row carries a truth: %+v", row)
				}
			case VerdictMissed:
				if row.Collected.IsValid() && row.Collected.Bits() != 0 {
					t.Fatalf("missed row carries a collected prefix: %+v", row)
				}
			}
			if row.MemberHits > row.MemberTotal {
				t.Fatalf("member hits %d > total %d: %+v", row.MemberHits, row.MemberTotal, row)
			}
		}

		// The paper's Table 1/2 classes are a projection of the same rows:
		// one class per true subnet, agreeing with the verdict accounting.
		outcomes := truth.Classify(score)
		if len(outcomes) != score.TruthSubnets {
			t.Fatalf("%d outcomes for %d true subnets", len(outcomes), score.TruthSubnets)
		}
		classes := map[Class]int{}
		for i, o := range outcomes {
			if o.Truth != truth.Subnets[i].Prefix || int(o.Class) >= len(Classes) {
				t.Fatalf("outcome %d = %+v for true subnet %v", i, o, truth.Subnets[i].Prefix)
			}
			classes[o.Class]++
		}
		if classes[ClassExact] != score.ExactTruth {
			t.Fatalf("exmt %d != ExactTruth %d", classes[ClassExact], score.ExactTruth)
		}
		if n := classes[ClassMiss] + classes[ClassMissUnresponsive]; n != score.Count(VerdictMissed) {
			t.Fatalf("miss + miss\\unrs = %d, missed rows %d", n, score.Count(VerdictMissed))
		}
		if classes[ClassMissUnresponsive] != score.MissedUnresponsive {
			t.Fatalf("miss\\unrs %d != MissedUnresponsive %d", classes[ClassMissUnresponsive], score.MissedUnresponsive)
		}

		// Rendering is deterministic and the JSON artifact is valid.
		var t1, t2, j1 bytes.Buffer
		if _, err := score.WriteText(&t1); err != nil {
			t.Fatal(err)
		}
		if _, err := score.WriteText(&t2); err != nil {
			t.Fatal(err)
		}
		if t1.String() != t2.String() {
			t.Fatal("text rendering not deterministic")
		}
		if err := score.WriteJSON(&j1); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(j1.Bytes(), &doc); err != nil {
			t.Fatalf("JSON artifact invalid: %v", err)
		}
	})
}
