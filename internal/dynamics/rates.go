package dynamics

import (
	"wardrop/internal/flow"
	"wardrop/internal/policy"
)

// rateMatrix holds, per commodity, the per-unit-flow migration rates
// R[p][q] = σ_pq · µ(ℓ_p, ℓ_q) computed from a (board) state, plus row sums.
// Indices p, q are commodity-local. The fluid ODE reads
//
//	ḟ_p = Σ_q f_q·R[q][p] − f_p·rowSum[p].
//
// Storage is transposed: ratesT[i][p*n+q] = R[q][p], so the derivative and
// uniformization kernels — called many times per fill — walk contiguous
// rows instead of strided columns. Origin-invariant samplers fill the
// transposed rows directly; custom samplers compute origin rows
// (register-accumulating each sum exactly as the reference row-major
// implementation did) and scatter them, so every produced value and row
// sum is bit-identical to the reference layout's either way.
type rateMatrix struct {
	inst *flow.Instance
	// ratesT[i] is an n_i×n_i matrix, row-major over TARGETS:
	// ratesT[i][p*n+q] is the rate from origin q into target p.
	ratesT  [][]float64
	rowSums [][]float64
	// Scratch: one sampler probability row and one origin row.
	probs  []float64
	rowBuf []float64
	// maxRate is the largest row sum over all commodities (≤ 1 for
	// probability-valued policies); used by the uniformization integrator.
	maxRate float64
}

// newRateMatrix sizes the matrix for the instance, carving all float
// storage from ws (nil allocates privately).
func newRateMatrix(inst *flow.Instance, ws *flow.Workspace) *rateMatrix {
	rm := &rateMatrix{inst: inst}
	maxN := 0
	for i := 0; i < inst.NumCommodities(); i++ {
		n := inst.NumCommodityPaths(i)
		if n > maxN {
			maxN = n
		}
		rm.ratesT = append(rm.ratesT, ws.Floats(n*n))
		rm.rowSums = append(rm.rowSums, ws.Floats(n))
	}
	rm.probs = ws.Floats(maxN)
	rm.rowBuf = ws.Floats(maxN)
	return rm
}

// fill computes rates from the board state (flows and path latencies indexed
// globally). Origin-invariant samplers (all builtins) take the fast path:
// one sampler call per commodity and a direct fill of the transposed
// storage (contiguous writes, no scatter). Custom samplers fall back to
// origin-major rows scattered into the transposed layout. The fill is
// strictly sequential: the Sampler/Migrator interfaces promise nothing about
// concurrency, and it runs inside sweep workers that are already
// pool-parallel.
func (rm *rateMatrix) fill(pol policy.Policy, boardFlows flow.Vector, boardLats []float64) {
	rm.maxRate = 0
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		flows := boardFlows[lo:hi]
		lats := boardLats[lo:hi]
		if policy.OriginInvariant(pol.Sampler) {
			// One sampler call serves every row.
			pol.Sampler.Probabilities(0, flows, lats, rm.probs[:n])
			rm.fillShared(pol.Migrator, i, lats)
			for _, s := range rm.rowSums[i] {
				if s > rm.maxRate {
					rm.maxRate = s
				}
			}
			continue
		}
		if m := rm.fillRows(pol, i, n, flows, lats); m > rm.maxRate {
			rm.maxRate = m
		}
	}
}

// fillShared fills commodity i's transposed target rows directly — entry
// ratesT[p*n+q] = probs[p]·µ(ℓ_q, ℓ_p) — using the shared sampler
// probability row, and folds them into the origin row sums: for each origin
// q the contributions arrive in ascending target order, exactly the
// origin-major row accumulation sequence (the diagonal contributes a literal
// +0.0, which the reference skips; adding it cannot change any non-negative
// partial sum).
func (rm *rateMatrix) fillShared(m policy.Migrator, i int, lats []float64) {
	n := len(lats)
	ratesT := rm.ratesT[i]
	probs := rm.probs[:n]
	sums := rm.rowSums[i]
	for q := range sums {
		sums[q] = 0
	}
	for p := 0; p < n; p++ {
		row := ratesT[p*n : (p+1)*n]
		policy.InflowRates(m, p, lats, probs[p], row)
		for q, r := range row {
			sums[q] += r
		}
	}
}

// fillRows fills commodity i's origin rows for an origin-dependent
// (custom) sampler, scattering each origin row into the transposed storage
// and returning the largest row sum.
func (rm *rateMatrix) fillRows(pol policy.Policy, i, n int, flows, lats []float64) float64 {
	ratesT := rm.ratesT[i]
	sums := rm.rowSums[i]
	probs := rm.probs[:n]
	row := rm.rowBuf[:n]
	localMax := 0.0
	for p := 0; p < n; p++ {
		pol.Sampler.Probabilities(p, flows, lats, probs)
		sum := policy.MigrationRates(pol.Migrator, p, lats, probs, row)
		sums[p] = sum
		if sum > localMax {
			localMax = sum
		}
		for q, r := range row {
			ratesT[q*n+p] = r
		}
	}
	return localMax
}

// derivative writes ḟ into df given the current flow f (both global
// vectors). It sweeps four target rows at once, so each f_q it loads feeds
// four independent accumulators. Every row still sums in its own fixed
// sequence — −f_p·rowSum_p first, then q ascending — and each step keeps
// the expression shape a += f_q·r, so the compiler makes the same
// fusion choice as for a row-at-a-time loop and the bits are that loop's
// (pinned against it in rates_test.go).
func (rm *rateMatrix) derivative(f flow.Vector, df []float64) {
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		ratesT := rm.ratesT[i]
		sums := rm.rowSums[i]
		fi := f[lo:hi]
		p := 0
		for ; p+4 <= n; p += 4 {
			r0 := ratesT[p*n : (p+1)*n][:len(fi)]
			r1 := ratesT[(p+1)*n : (p+2)*n][:len(fi)]
			r2 := ratesT[(p+2)*n : (p+3)*n][:len(fi)]
			r3 := ratesT[(p+3)*n : (p+4)*n][:len(fi)]
			a0 := -fi[p] * sums[p]
			a1 := -fi[p+1] * sums[p+1]
			a2 := -fi[p+2] * sums[p+2]
			a3 := -fi[p+3] * sums[p+3]
			for q, x := range fi {
				a0 += x * r0[q]
				a1 += x * r1[q]
				a2 += x * r2[q]
				a3 += x * r3[q]
			}
			df[lo+p], df[lo+p+1], df[lo+p+2], df[lo+p+3] = a0, a1, a2, a3
		}
		for ; p < n; p++ {
			row := ratesT[p*n : (p+1)*n][:len(fi)]
			acc := -fi[p] * sums[p]
			for q, x := range fi {
				acc += x * row[q]
			}
			df[lo+p] = acc
		}
	}
}

// applyTranspose computes out = Kᵀ·v where K is the uniformised kernel
// K[p][q] = R[p][q]/Λ for q≠p and K[p][p] = 1 − rowSum[p]/Λ, with the
// uniformisation rate Λ ≥ maxRate. v and out are global vectors.
func (rm *rateMatrix) applyTranspose(v, out []float64, lambda float64) {
	for i := 0; i < rm.inst.NumCommodities(); i++ {
		lo, hi := rm.inst.CommodityRange(i)
		n := hi - lo
		ratesT := rm.ratesT[i]
		sums := rm.rowSums[i]
		for p := 0; p < n; p++ {
			row := ratesT[p*n : (p+1)*n]
			acc := v[lo+p] * (1 - sums[p]/lambda)
			for q, r := range row {
				if q == p {
					continue
				}
				acc += v[lo+q] * r / lambda
			}
			out[lo+p] = acc
		}
	}
}
