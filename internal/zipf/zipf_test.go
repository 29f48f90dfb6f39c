package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGeneratorValidation(t *testing.T) {
	for _, tc := range []struct {
		n uint64
		s float64
	}{{0, 0.99}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGenerator(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewGenerator(tc.n, tc.s, 1)
		}()
	}
}

func TestGeneratorRange(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.99, 1.0, 1.2} {
		g := NewGenerator(1000, s, 42)
		for i := 0; i < 10000; i++ {
			k := g.Next()
			if k < 1 || k > 1000 {
				t.Fatalf("s=%v: rank %d out of [1,1000]", s, k)
			}
		}
	}
}

func TestGeneratorSingleton(t *testing.T) {
	g := NewGenerator(1, 0.99, 7)
	for i := 0; i < 100; i++ {
		if k := g.Next(); k != 1 {
			t.Fatalf("n=1 generator returned %d", k)
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	g := NewGenerator(10, 0, 1)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[g.Next()-1]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("rank %d frequency %.3f far from 0.1", i+1, frac)
		}
	}
}

func TestZipfSkewConcentratesOnHead(t *testing.T) {
	g := NewGenerator(100000, 0.99, 1)
	const draws = 200000
	var head int
	for i := 0; i < draws; i++ {
		if g.Next() <= 1000 { // top 1%
			head++
		}
	}
	frac := float64(head) / draws
	// Analytic portion for top 1% of 100k at s=0.99 is ~0.66.
	want := TopPortion(100000, 1000, 0.99)
	if math.Abs(frac-want) > 0.05 {
		t.Fatalf("head fraction %.3f, analytic %.3f", frac, want)
	}
}

func TestZipfEmpiricalMatchesAnalyticFrequency(t *testing.T) {
	const n, draws = 50, 300000
	for _, s := range []float64{0.5, 0.99, 1.3} {
		g := NewGenerator(n, s, 9)
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[g.Next()-1]++
		}
		for _, k := range []uint64{1, 2, 5, 10} {
			emp := counts[k-1] / draws
			ana := Frequency(n, k, s)
			if math.Abs(emp-ana) > 0.25*ana+0.005 {
				t.Fatalf("s=%v rank=%d: empirical %.4f vs analytic %.4f", s, k, emp, ana)
			}
		}
	}
}

func TestHarmonicGeneralizedKnownValues(t *testing.T) {
	// H_{3,1} = 1 + 1/2 + 1/3
	if got, want := HarmonicGeneralized(3, 1), 1.0+0.5+1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("H(3,1) = %v, want %v", got, want)
	}
	// H_{4,0} = 4
	if got := HarmonicGeneralized(4, 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("H(4,0) = %v, want 4", got)
	}
	// s=2 converges to pi^2/6 for large n
	if got := HarmonicGeneralized(1000000, 2); math.Abs(got-math.Pi*math.Pi/6) > 1e-5 {
		t.Fatalf("H(1e6,2) = %v, want ~pi^2/6", got)
	}
}

func TestHarmonicLargeNApproximation(t *testing.T) {
	// Above the exact-summation threshold the Euler-Maclaurin tail must
	// agree with brute-force summation to well under 0.1%.
	for _, n := range []uint64{harmonicExactMax + 1, harmonicExactMax + 1000, 100000} {
		for _, s := range []float64{0.5, 0.99, 1.0, 1.3} {
			var exact float64
			for k := uint64(1); k <= n; k++ {
				exact += math.Pow(float64(k), -s)
			}
			got := HarmonicGeneralized(n, s)
			if rel := math.Abs(got-exact) / exact; rel > 1e-3 {
				t.Fatalf("n=%d s=%v: approx %v vs exact %v (rel %v)", n, s, got, exact, rel)
			}
			if got <= HarmonicGeneralized(n-1, s) {
				t.Fatalf("n=%d s=%v: H not increasing", n, s)
			}
		}
	}
}

func TestTopPortionProperties(t *testing.T) {
	if got := TopPortion(100, 0, 0.99); got != 0 {
		t.Fatalf("TopPortion(top=0) = %v, want 0", got)
	}
	if got := TopPortion(100, 100, 0.99); got != 1 {
		t.Fatalf("TopPortion(top=n) = %v, want 1", got)
	}
	if got := TopPortion(100, 150, 0.99); got != 1 {
		t.Fatalf("TopPortion(top>n) = %v, want 1", got)
	}
	if got := TopPortion(0, 10, 0.99); got != 0 {
		t.Fatalf("TopPortion(n=0) = %v, want 0", got)
	}
	// Uniform special case.
	if got := TopPortion(200, 50, 0); got != 0.25 {
		t.Fatalf("uniform TopPortion = %v, want 0.25", got)
	}
	// Monotone in top and in s.
	f := func(a, b uint16, s8 uint8) bool {
		n := uint64(a)%5000 + 100
		top1 := uint64(b) % n
		top2 := top1 + (n-top1)/2
		s := float64(s8) / 200.0 // [0, 1.275]
		p1, p2 := TopPortion(n, top1, s), TopPortion(n, top2, s)
		if p2 < p1-1e-12 {
			return false
		}
		// Higher skew concentrates more mass on the same head (for top<n, top>0).
		if top1 > 0 && top1 < n {
			if TopPortion(n, top1, s+0.2) < TopPortion(n, top1, s)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencySumsToOne(t *testing.T) {
	const n = 500
	for _, s := range []float64{0, 0.7, 0.99, 1.4} {
		var sum float64
		for k := uint64(1); k <= n; k++ {
			sum += Frequency(n, k, s)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("s=%v: frequencies sum to %v", s, sum)
		}
	}
	if Frequency(10, 0, 1) != 0 || Frequency(10, 11, 1) != 0 {
		t.Fatal("out-of-range rank should have frequency 0")
	}
}

func TestSampleSkewness(t *testing.T) {
	if got := SampleSkewness([]float64{1, 2}); got != 0 {
		t.Fatalf("skewness of 2 samples = %v, want 0", got)
	}
	if got := SampleSkewness([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("skewness of constant = %v, want 0", got)
	}
	// Symmetric → ~0.
	if got := SampleSkewness([]float64{1, 2, 3, 4, 5}); math.Abs(got) > 1e-9 {
		t.Fatalf("skewness of symmetric = %v, want 0", got)
	}
	// Right-tailed → positive.
	if got := SampleSkewness([]float64{1, 1, 1, 1, 10}); got <= 0 {
		t.Fatalf("right-tailed skewness = %v, want > 0", got)
	}
	// Left-tailed → negative.
	if got := SampleSkewness([]float64{10, 10, 10, 10, 1}); got >= 0 {
		t.Fatalf("left-tailed skewness = %v, want < 0", got)
	}
}

func TestEstimateZipfSRecovers(t *testing.T) {
	// Build the exact frequency profile a Zipf(s) workload induces and check
	// the estimator inverts it reasonably.
	const n = 100000
	for _, s := range []float64{0.6, 0.99, 1.2} {
		var freqs []float64
		const touched = 2000
		const accesses = 1e6
		for k := uint64(1); k <= touched; k++ {
			freqs = append(freqs, Frequency(n, k, s)*accesses)
		}
		got := EstimateZipfS(freqs, n)
		if math.Abs(got-s) > 0.15 {
			t.Fatalf("EstimateZipfS for s=%v returned %v", s, got)
		}
	}
}

func TestEstimateZipfSDegenerate(t *testing.T) {
	if got := EstimateZipfS(nil, 100); got != 0 {
		t.Fatalf("nil freqs → %v, want 0", got)
	}
	if got := EstimateZipfS([]float64{3, 3, 3, 3}, 100); got != 0 {
		t.Fatalf("uniform freqs → %v, want 0", got)
	}
}

// oracleEstimateZipfS is the forward model EstimateZipfS used before it went
// O(1): at every bisection step it materialises the top-k normalised Zipf
// frequencies and runs SampleSkewness over them. Kept as the reference the
// power-sum model is checked against.
func oracleEstimateZipfS(freqs []float64, nObjects uint64) float64 {
	if len(freqs) < 3 || nObjects < 3 {
		return 0
	}
	observed := SampleSkewness(freqs)
	if observed <= 0 {
		return 0
	}
	k := uint64(len(freqs))
	if k > nObjects {
		k = nObjects
	}
	model := func(s float64) float64 {
		h := HarmonicGeneralized(nObjects, s)
		fs := make([]float64, k)
		total := float64(len(freqs))
		for i := uint64(0); i < k; i++ {
			fs[i] = math.Pow(float64(i+1), -s) / h * total
		}
		return SampleSkewness(fs)
	}
	lo, hi := 0.0, 1.5
	if observed >= model(hi) {
		return hi
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if model(mid) < observed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

var skewGridK = []uint64{16, 33, 100, 256, 1024, 4096}

// TestRankSkewnessMatchesSampleSkewness checks the O(1) forward model
// against SampleSkewness over the explicit frequencies it replaces.
func TestRankSkewnessMatchesSampleSkewness(t *testing.T) {
	worst := 0.0
	for _, k := range skewGridK {
		for s := 0.05; s <= 1.5+1e-9; s += 0.05 {
			fs := make([]float64, k)
			for i := range fs {
				fs[i] = math.Pow(float64(i+1), -s)
			}
			want, got := SampleSkewness(fs), rankSkewness(k, s)
			rel := math.Abs(got-want) / want
			if rel > 1e-8 {
				t.Errorf("k=%d s=%.2f: rankSkewness %.12g, SampleSkewness %.12g (rel %.2e)", k, s, got, want, rel)
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("max relative difference %.2e", worst)
}

// TestEstimateZipfSMatchesOracle runs the estimator and the pre-O(1) oracle
// on Zipf(s) top-k frequencies over a (k, s, n) grid, including n < k.
func TestEstimateZipfSMatchesOracle(t *testing.T) {
	for _, n := range []uint64{1000, 250_000, 10_000_000} {
		for _, k := range skewGridK {
			for _, s := range []float64{0.1, 0.4, 0.7, 0.99, 1.3} {
				freqs := make([]float64, k)
				h := HarmonicGeneralized(n, s)
				for i := range freqs {
					freqs[i] = math.Pow(float64(i+1), -s) / h * 1e6
				}
				got, want := EstimateZipfS(freqs, n), oracleEstimateZipfS(freqs, n)
				if math.Abs(got-want) > 1e-6 {
					t.Errorf("n=%d k=%d s=%.2f: EstimateZipfS %.9f, oracle %.9f", n, k, s, got, want)
				}
			}
		}
	}
}

// TestEstimateZipfSBelowFloor pins what the floor does: an observed skewness
// under the model's value at s → 0 (here Poisson-ish counts of a uniform
// workload) estimates as 0, as the oracle does.
func TestEstimateZipfSBelowFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	freqs := make([]float64, 4096)
	for i := range freqs {
		freqs[i] = float64(1 + rng.Intn(3))
	}
	got, want := EstimateZipfS(freqs, 250_000), oracleEstimateZipfS(freqs, 250_000)
	if got > 1e-9 || want > 1e-9 {
		t.Fatalf("uniform-like counts: EstimateZipfS %v, oracle %v; want both ≈ 0", got, want)
	}
}

var sinkS float64

// BenchmarkEstimateZipfS estimates from the profiler's 4096-sample cap at two
// population sizes; ns/op must not grow with n.
func BenchmarkEstimateZipfS(b *testing.B) {
	for _, n := range []uint64{250_000, 10_000_000} {
		freqs := make([]float64, 4096)
		for i := range freqs {
			freqs[i] = Frequency(n, uint64(i+1), 0.99) * 1e6
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkS = EstimateZipfS(freqs, n)
			}
		})
	}
}
