package zipf

import "math"

// SampleSkewness computes the adjusted Fisher–Pearson standardized moment
// coefficient G1 from Joanes & Gill (1998), the estimator the DIDO paper cites
// for runtime skewness estimation ([17] in the paper). It returns 0 for fewer
// than 3 samples or zero variance.
func SampleSkewness(samples []float64) float64 {
	n := float64(len(samples))
	if n < 3 {
		return 0
	}
	var mean float64
	for _, v := range samples {
		mean += v
	}
	mean /= n
	var m2, m3 float64
	for _, v := range samples {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// EstimateZipfS maps an observed access-frequency skewness back to a Zipf
// exponent. The profiler samples per-object access counters over an interval
// (paper §IV-B); the frequency distribution of a Zipf(s) workload has a
// skewness that grows monotonically with s, so a bisection over the forward
// model inverts it.
//
// freqs are the access counts of the objects touched during the sampling
// interval. nObjects is the total population size. The returned s is clamped
// to [0, 1.5], the range relevant for IMKV workloads (YCSB uses 0.99).
//
// Each bisection step is O(1) in len(freqs) and nObjects (see rankSkewness);
// only the one SampleSkewness pass over freqs grows with the sample.
func EstimateZipfS(freqs []float64, nObjects uint64) float64 {
	if len(freqs) < 3 || nObjects < 3 {
		return 0
	}
	observed := SampleSkewness(freqs)
	if observed <= 0 {
		return 0
	}
	// Forward model: theoretical skewness of the frequency-of-access
	// distribution over the touched set under Zipf(s). We match the sampling
	// process: frequencies of the most popular len(freqs) objects (sampling
	// is popularity-biased, so the touched set concentrates on top ranks).
	k := uint64(len(freqs))
	if k > nObjects {
		k = nObjects
	}
	// Held at its skewFloor value below the floor, the model stays monotone
	// and the bisection converges to 0 wherever the answer is under it.
	model := func(s float64) float64 { return rankSkewness(k, math.Max(s, skewFloor)) }
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

// skewFloor is the smallest exponent rankSkewness resolves. Its central
// moments are differences of power sums that agree to about s·ln k, so the
// relative error grows like ε/s³: ≈1e-10 at s = 0.01, noise below s ≈ 1e-4.
// The profiler snaps estimates under 0.05 to 0, so nothing downstream sees
// the floor.
const skewFloor = 0.01

// rankSkewness is the Joanes & Gill G1 of {i^-s : i = 1..k}, which is what
// SampleSkewness returns for the top-k Zipf(s) frequencies. Skewness is
// scale-free, so the Zipf normalisation H(n, s) drops out, and the three raw
// moments come from the power sums Σi^-s, Σi^-2s and Σi^-3s: an exact head of
// powerSumHead terms plus an Euler–Maclaurin tail each, O(1) in k.
func rankSkewness(k uint64, s float64) float64 {
	var sum [3]float64 // Σ i^-s, Σ i^-2s, Σ i^-3s
	for i := uint64(1); i <= k && i <= powerSumHead; i++ {
		x := math.Pow(float64(i), -s)
		sum[0] += x
		sum[1] += x * x
		sum[2] += x * x * x
	}
	if k > powerSumHead {
		for j := range sum {
			sum[j] += powerSumTail(k, float64(j+1)*s)
		}
	}
	n := float64(k)
	m1, r2, r3 := sum[0]/n, sum[1]/n, sum[2]/n
	m2 := r2 - m1*m1
	m3 := r3 - 3*m1*r2 + 2*m1*m1*m1
	if m2 <= 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// powerSumHead is how many leading terms of a power sum rankSkewness adds
// exactly; past it the summand is smooth enough for a short Euler–Maclaurin
// series.
const powerSumHead = 32

// powerSumTail returns Σ_{i=powerSumHead+1..k} i^-p by Euler–Maclaurin
// through the B4 term, whose next term is under 1e-14 relative for p ≤ 4.5.
// HarmonicGeneralized sums the same series with a 4096-term head and a
// trapezoid tail; the cost model's outputs are pinned to that one, so it
// stays as it is.
func powerSumTail(k uint64, p float64) float64 {
	// With f(x) = x^-p, a = powerSumHead and b = k:
	// Σ_{i=a+1..b} f(i) = ∫_a^b f + (f(b)−f(a))/2 + (f′(b)−f′(a))/12
	//                     − (f‴(b)−f‴(a))/720 + …
	a, b := float64(powerSumHead), float64(k)
	var sum float64
	if math.Abs(p-1) < 1e-12 {
		sum = math.Log(b / a)
	} else {
		sum = (math.Pow(b, 1-p) - math.Pow(a, 1-p)) / (1 - p)
	}
	fa, fb := math.Pow(a, -p), math.Pow(b, -p)
	sum += (fb - fa) / 2
	sum += -p * (fb/b - fa/a) / 12
	sum += p * (p + 1) * (p + 2) * (fb/(b*b*b) - fa/(a*a*a)) / 720
	return sum
}
