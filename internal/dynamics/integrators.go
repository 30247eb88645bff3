package dynamics

import (
	"math"

	"wardrop/internal/flow"
)

// derivative writes ḟ at state f into df.
type derivative func(f flow.Vector, df []float64)

// integrateEuler advances f over duration tau with explicit Euler steps of
// size at most step.
func integrateEuler(deriv derivative, f flow.Vector, tau, step float64, df []float64) {
	for remaining := tau; remaining > 1e-15; {
		h := math.Min(step, remaining)
		deriv(f, df)
		for i := range f {
			f[i] += h * df[i]
		}
		remaining -= h
	}
}

// rk4Scratch holds the four slope buffers and the midpoint state.
type rk4Scratch struct {
	k1, k2, k3, k4, mid []float64
}

func newRK4Scratch(n int, ws *flow.Workspace) *rk4Scratch {
	return &rk4Scratch{
		k1:  ws.Floats(n),
		k2:  ws.Floats(n),
		k3:  ws.Floats(n),
		k4:  ws.Floats(n),
		mid: ws.Floats(n),
	}
}

// integrateRK4 advances f over duration tau with classic RK4 steps of size
// at most step. Both dynamics it integrates are autonomous (the frozen-board
// system is also linear), so the stage evaluations need no time argument.
func integrateRK4(deriv derivative, f flow.Vector, tau, step float64, s *rk4Scratch) {
	for remaining := tau; remaining > 1e-15; {
		h := math.Min(step, remaining)
		deriv(f, s.k1)
		for i := range f {
			s.mid[i] = f[i] + 0.5*h*s.k1[i]
		}
		deriv(s.mid, s.k2)
		for i := range f {
			s.mid[i] = f[i] + 0.5*h*s.k2[i]
		}
		deriv(s.mid, s.k3)
		for i := range f {
			s.mid[i] = f[i] + h*s.k3[i]
		}
		deriv(s.mid, s.k4)
		for i := range f {
			f[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
		}
		remaining -= h
	}
}

// integrateUniformization computes f(tau) = e^{Gτ} f exactly (to series
// tolerance) where G = Λ(Kᵀ − I): the uniformised Poisson series
// f(τ) = Σ_n e^{−Λτ}(Λτ)ⁿ/n! · (Kᵀ)ⁿ f. It is exact for the frozen-board
// phase because migration rates are constant within a phase.
func integrateUniformization(rm *rateMatrix, f flow.Vector, tau float64, vCur, vNext, acc []float64) {
	lambda := rm.maxRate
	if lambda <= 0 {
		return // no migration at all this phase
	}
	x := lambda * tau
	weight := math.Exp(-x) // Poisson(x) pmf at n=0
	copy(vCur, f)
	for i := range acc {
		acc[i] = weight * vCur[i]
	}
	// Series length: mean x plus a generous tail; cap guards pathological x.
	maxTerms := int(x + 30*math.Sqrt(x+1) + 20)
	cum := weight
	for n := 1; n <= maxTerms; n++ {
		rm.applyTranspose(vCur, vNext, lambda)
		vCur, vNext = vNext, vCur
		weight *= x / float64(n)
		cum += weight
		for i := range acc {
			acc[i] += weight * vCur[i]
		}
		if 1-cum < 1e-14 {
			break
		}
	}
	copy(f, acc)
}
