package policy

import "math"

// Batch kernels for the fluid rate matrix: the per-entry migration
// probability µ(ℓ_P, ℓ_Q) is an interface call in the generic path, which
// dominates the O(|P_i|²) rate-matrix fill. The kernels below specialize
// the builtin migrator kinds into concrete loops with the interface bodies
// inlined — including a branch form of min{1, ·} proved bit-identical to
// math.Min below — so the produced rates are bit-for-bit the generic
// path's values at a fraction of the cost (TestBatchRowsMatchInterface
// pins the identity).

// min1 returns math.Min(1, v) for every float64 v without the call and
// special-case overhead: v > 1 picks 1; any other v — including NaN, ±0
// and -Inf, for which the comparison is false — is returned unchanged,
// exactly math.Min's result when its first argument is 1.
func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// MigrationRates fills rates[q] = probs[q]·µ(ℓ_origin, lats[q]) for every
// q ≠ origin, sets rates[origin] = 0, and returns the row sum accumulated in
// ascending q order — one origin row of the fluid dynamics' migration rate
// matrix. lats, probs and rates are commodity-local, all of equal length.
func MigrationRates(m Migrator, origin int, lats, probs, rates []float64) float64 {
	lp := lats[origin]
	sum := 0.0
	switch mg := m.(type) {
	case BetterResponse:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			mu := 0.0
			if lp > lats[q] {
				mu = 1
			}
			r := probs[q] * mu
			rates[q] = r
			sum += r
		}
	case Linear:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			lq := lats[q]
			mu := 0.0
			if lp > lq {
				mu = min1((lp - lq) / mg.LMax)
			}
			r := probs[q] * mu
			rates[q] = r
			sum += r
		}
	case AlphaLinear:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			lq := lats[q]
			mu := 0.0
			if lp > lq {
				mu = min1(mg.AlphaParam * (lp - lq))
			}
			r := probs[q] * mu
			rates[q] = r
			sum += r
		}
	case Quadratic:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			lq := lats[q]
			mu := 0.0
			if lp > lq {
				d := lp - lq
				mu = min1(mg.AlphaParam * d * d / mg.LMax)
			}
			r := probs[q] * mu
			rates[q] = r
			sum += r
		}
	case RelativeGain:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			lq := lats[q]
			mu := 0.0
			if lp > lq {
				mu = min1(mg.AlphaParam * (lp - lq) / math.Max(lp, mg.Floor))
			}
			r := probs[q] * mu
			rates[q] = r
			sum += r
		}
	default:
		for q := range rates {
			if q == origin {
				rates[q] = 0
				continue
			}
			r := probs[q] * m.Probability(lp, lats[q])
			rates[q] = r
			sum += r
		}
	}
	return sum
}

// InflowRates fills rates[q] = probTarget·µ(lats[q], ℓ_target) for every
// q ≠ target and sets rates[target] = 0 — one TARGET row of the transposed
// rate matrix, entries flowing from each origin q into the fixed target.
// probTarget is the (origin-invariant) probability of sampling the target,
// so every entry is the same product the origin-major MigrationRates
// produces; only the iteration order differs. Used by the rate-matrix fill
// when the sampler is origin-invariant, writing the transposed storage
// directly instead of scattering origin rows.
func InflowRates(m Migrator, target int, lats []float64, probTarget float64, rates []float64) {
	lt := lats[target]
	switch mg := m.(type) {
	case BetterResponse:
		for q := range rates {
			mu := 0.0
			if lats[q] > lt {
				mu = 1
			}
			rates[q] = probTarget * mu
		}
	case Linear:
		for q := range rates {
			lp := lats[q]
			mu := 0.0
			if lp > lt {
				mu = min1((lp - lt) / mg.LMax)
			}
			rates[q] = probTarget * mu
		}
	case AlphaLinear:
		for q := range rates {
			lp := lats[q]
			mu := 0.0
			if lp > lt {
				mu = min1(mg.AlphaParam * (lp - lt))
			}
			rates[q] = probTarget * mu
		}
	case Quadratic:
		for q := range rates {
			lp := lats[q]
			mu := 0.0
			if lp > lt {
				d := lp - lt
				mu = min1(mg.AlphaParam * d * d / mg.LMax)
			}
			rates[q] = probTarget * mu
		}
	case RelativeGain:
		for q := range rates {
			lp := lats[q]
			mu := 0.0
			if lp > lt {
				mu = min1(mg.AlphaParam * (lp - lt) / math.Max(lp, mg.Floor))
			}
			rates[q] = probTarget * mu
		}
	default:
		for q := range rates {
			rates[q] = probTarget * m.Probability(lats[q], lt)
		}
	}
	rates[target] = 0
}

// OriginInvariant reports whether the sampler's distribution is independent
// of the sampling agent's current path, so one Probabilities call per
// commodity serves every origin row. All builtin samplers qualify; unknown
// samplers conservatively report false and are evaluated per row.
func OriginInvariant(s Sampler) bool {
	switch s.(type) {
	case Uniform, Proportional, Boltzmann:
		return true
	}
	return false
}
