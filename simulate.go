package wardrop

import (
	"wardrop/internal/dynamics"
	"wardrop/internal/solver"
	"wardrop/internal/topo"
)

// Simulation results and observations ---------------------------------------

// SimResult is a simulation outcome.
type SimResult = dynamics.Result

// PhaseInfo is the per-phase observation passed to observers.
type PhaseInfo = dynamics.PhaseInfo

// RunShape holds the run-shape fields every engine configuration embeds:
// (δ,ε) accounting, streak stop, recording, observer and workspace.
type RunShape = dynamics.RunShape

// Sample is one recorded trajectory point.
type Sample = dynamics.Sample

// Integrator selects the within-phase integration scheme.
type Integrator = dynamics.Integrator

// Integrator choices.
const (
	// Euler is explicit first-order integration.
	Euler = dynamics.Euler
	// RK4 is classic fourth-order Runge–Kutta.
	RK4 = dynamics.RK4
	// Uniformization is exact for the frozen-board linear phase.
	Uniformization = dynamics.Uniformization
)

// Accountant accumulates the per-phase Lemma 3 / Lemma 4 potential
// bookkeeping.
type Accountant = dynamics.Accountant

// PhaseAccount is one phase's potential bookkeeping.
type PhaseAccount = dynamics.PhaseAccount

// NewAccountant creates a potential accountant for the instance.
func NewAccountant(inst *Instance) *Accountant { return dynamics.NewAccountant(inst) }

// TwoLinkOscillation returns the §3.2 closed forms: the periodic start
// f1(0), the sustained latency amplitude X, and the largest T keeping the
// oscillation within eps.
func TwoLinkOscillation(beta, period, eps float64) (f1Start, amplitude, maxPeriod float64) {
	return dynamics.TwoLinkOscillation(beta, period, eps)
}

// Reference solver ----------------------------------------------------------------

// SolverOptions configures the equilibrium solver.
type SolverOptions = solver.Options

// SolverResult is a solve outcome.
type SolverResult = solver.Result

// SolveEquilibrium computes a Wardrop equilibrium by pairwise Frank–Wolfe
// minimisation of the potential.
func SolveEquilibrium(inst *Instance, opts SolverOptions) (*SolverResult, error) {
	return solver.SolveEquilibrium(inst, opts)
}

// SolveSocialOptimum computes the total-latency-optimal flow via the
// marginal-cost transformation.
func SolveSocialOptimum(inst *Instance, opts SolverOptions) (*SolverResult, error) {
	return solver.SolveSocialOptimum(inst, opts)
}

// PriceOfAnarchy returns L(equilibrium)/L(optimum) with both costs.
func PriceOfAnarchy(inst *Instance, opts SolverOptions) (poa, eqCost, optCost float64, err error) {
	return solver.PriceOfAnarchy(inst, opts)
}

// Canonical topologies --------------------------------------------------------------

// Pigou builds the two-link Pigou network (x vs 1).
func Pigou() (*Instance, error) { return topo.Pigou() }

// Braess builds the Braess paradox network with the zero-latency bridge.
func Braess() (*Instance, error) { return topo.Braess() }

// TwoLinkKink builds the paper's §3.2 oscillation instance.
func TwoLinkKink(beta float64) (*Instance, error) { return topo.TwoLinkKink(beta) }

// ParallelLinks builds parallel s→t links with the given latencies.
func ParallelLinks(lats []LatencyFunc) (*Instance, error) { return topo.ParallelLinks(lats) }

// LinearParallelLinks builds m parallel links with staggered affine
// latencies.
func LinearParallelLinks(m int) (*Instance, error) { return topo.LinearParallelLinks(m) }

// GridNetwork builds an n×n directed grid with affine latencies.
func GridNetwork(n int) (*Instance, error) { return topo.Grid(n) }

// LayeredRandom builds a random layered DAG with seeded affine latencies.
func LayeredRandom(layers, width int, seed uint64) (*Instance, error) {
	return topo.LayeredRandom(layers, width, seed)
}

// TwoCommodityOverlap builds the minimal two-commodity instance with a
// shared edge.
func TwoCommodityOverlap() (*Instance, error) { return topo.TwoCommodityOverlap() }

// MultiCommodityParallel builds k commodities with staggered demands
// competing on m shared parallel links.
func MultiCommodityParallel(k, m int) (*Instance, error) { return topo.MultiCommodityParallel(k, m) }
