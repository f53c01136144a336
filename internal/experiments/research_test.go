package experiments

import (
	"math"
	"testing"

	"tracenet/internal/groundtruth"
)

// TestTable1Internet2 validates the Table 1 reproduction: the collected
// distribution must track the paper's rows and headline rates
// (73.7% exact including unresponsive, 94.9% excluding; prefix similarity
// 0.83; size similarity 0.86).
func TestTable1Internet2(t *testing.T) {
	res, err := Table1Internet2(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Total() != 179 {
		t.Fatalf("original subnets = %d, want 179", res.Dist.Total())
	}
	checkRate(t, "exact rate", res.ExactRate, 0.737, 0.06)
	checkRate(t, "responsive exact rate", res.ExactRateResponsive, 0.949, 0.06)
	checkRate(t, "prefix similarity", res.PrefixSimilarity, 0.83, 0.08)
	checkRate(t, "size similarity", res.SizeSimilarity, 0.86, 0.08)

	if got := res.Dist.Count(groundtruth.ClassMissUnresponsive); got != 21 {
		t.Errorf("miss\\unrs = %d, want 21", got)
	}
	if got := res.Dist.Count(groundtruth.ClassUnderUnresponsive); got != 19 {
		t.Errorf("undes\\unrs = %d, want 19", got)
	}
	if got := res.Dist.Count(groundtruth.ClassExact); got < 125 || got > 139 {
		t.Errorf("exact = %d, want ~132", got)
	}
}

// TestTable2GEANT validates the Table 2 reproduction (53.5% / 97.3% exact,
// 0.900 prefix similarity, 0.907 size similarity).
func TestTable2GEANT(t *testing.T) {
	res, err := Table2GEANT(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Total() != 271 {
		t.Fatalf("original subnets = %d, want 271", res.Dist.Total())
	}
	checkRate(t, "exact rate", res.ExactRate, 0.535, 0.06)
	checkRate(t, "responsive exact rate", res.ExactRateResponsive, 0.973, 0.05)
	// The paper reports 0.900/0.907 for GEANT; those values are only
	// consistent with equations (3)/(5) once totally unresponsive subnets
	// are excluded (see groundtruth.PaperEval). The plain
	// formula applied to the paper's own Table 2 yields ≈0.60.
	checkRate(t, "responsive prefix similarity", res.PrefixSimilarityResponsive, 0.900, 0.08)
	checkRate(t, "responsive size similarity", res.SizeSimilarityResponsive, 0.907, 0.08)
	if res.PrefixSimilarity > 0.8 {
		t.Errorf("plain prefix similarity = %.3f; expected the low (≈0.6) value the formula actually yields", res.PrefixSimilarity)
	}

	if got := res.Dist.Count(groundtruth.ClassMissUnresponsive); got != 97 {
		t.Errorf("miss\\unrs = %d, want 97", got)
	}
}

func checkRate(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.2f", name, got, want, tol)
	}
}

// TestResearchSeedIndependence: the Table 1/2 runs involve no randomness
// (lossless network, per-flow balancing on unambiguous paths), so any seed
// must reproduce the identical distribution — the reproduction is a property
// of the algorithm, not of a lucky seed.
func TestResearchSeedIndependence(t *testing.T) {
	a, err := Table1Internet2(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1Internet2(424242)
	if err != nil {
		t.Fatal(err)
	}
	for cls, cells := range a.Dist.PerClass {
		for bits, n := range cells {
			if b.Dist.PerClass[cls][bits] != n {
				t.Fatalf("seed changed cell %v//%d: %d vs %d", cls, bits, n, b.Dist.PerClass[cls][bits])
			}
		}
	}
	if a.Probes != b.Probes {
		t.Fatalf("seed changed probe count: %d vs %d", a.Probes, b.Probes)
	}
}
