package dynamics

// The rate-matrix fill takes a direct transposed path for origin-invariant
// samplers and an origin-major scatter path for custom ones. These tests pin
// the two paths bitwise to each other and check that custom policy
// implementations, which carry no concurrency contract, are evaluated
// strictly sequentially.

import (
	"math"
	"testing"

	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// originBiased is a sampler that is NOT origin-invariant, forcing the
// custom-sampler fill path.
type originBiased struct{}

func (originBiased) Probabilities(origin int, flows, _ []float64, probs []float64) {
	n := len(probs)
	base := 1 / float64(2*n)
	for q := range probs {
		probs[q] = base
	}
	probs[origin] += 0.5
}

func (originBiased) Name() string { return "origin-biased" }

// serialOnlyMigrator wraps a builtin in a custom type, and trips the test if
// evaluated concurrently.
type serialOnlyMigrator struct {
	m    policy.Migrator
	busy int32
	bad  bool
}

func (s *serialOnlyMigrator) Probability(lp, lq float64) float64 {
	s.busy++
	if s.busy != 1 {
		s.bad = true
	}
	v := s.m.Probability(lp, lq)
	s.busy--
	return v
}

func (s *serialOnlyMigrator) Name() string { return "serial-only(" + s.m.Name() + ")" }

func assertRateMatrixEqual(t *testing.T, want, got *rateMatrix) {
	t.Helper()
	if math.Float64bits(want.maxRate) != math.Float64bits(got.maxRate) {
		t.Fatalf("maxRate: %v != %v", got.maxRate, want.maxRate)
	}
	for i := range want.ratesT {
		for k := range want.ratesT[i] {
			if math.Float64bits(want.ratesT[i][k]) != math.Float64bits(got.ratesT[i][k]) {
				t.Fatalf("ratesT[%d][%d]: %v != %v", i, k, got.ratesT[i][k], want.ratesT[i][k])
			}
		}
		for p := range want.rowSums[i] {
			if math.Float64bits(want.rowSums[i][p]) != math.Float64bits(got.rowSums[i][p]) {
				t.Fatalf("rowSums[%d][%d]: %v != %v", i, p, got.rowSums[i][p], want.rowSums[i][p])
			}
		}
	}
}

// TestCustomPolicyStaysSequential pins the concurrency contract: custom
// samplers and migrators never run in parallel, even on a 150-path
// commodity.
func TestCustomPolicyStaysSequential(t *testing.T) {
	inst, err := topo.LinearParallelLinks(150)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.SinglePathFlow(0)
	pl := inst.PathLatencies(f)
	mig, err := policy.NewLinear(inst.LMax())
	if err != nil {
		t.Fatal(err)
	}
	serial := &serialOnlyMigrator{m: mig}
	for _, pol := range []policy.Policy{
		{Sampler: policy.Proportional{}, Migrator: serial}, // shared path, custom migrator
		{Sampler: originBiased{}, Migrator: serial},        // custom sampler path
	} {
		t.Run(pol.Sampler.Name(), func(t *testing.T) {
			rm := newRateMatrix(inst, nil, pol, orderedMinPaths)
			rm.fill(pol, f, pl)
			if serial.bad {
				t.Fatal("custom migrator evaluated concurrently")
			}
			// And the produced rates must match the builtin migrator's
			// (serialOnlyMigrator only wraps) through the generic kernels.
			builtin := policy.Policy{Sampler: pol.Sampler, Migrator: mig}
			want := denseRates(inst, builtin)
			want.fill(builtin, f, pl)
			got := rm
			assertRateMatrixEqual(t, want, got)
		})
	}
}

// TestSharedFillMatchesScatterFill pins the origin-invariant fast path
// (direct transposed fill, fused sums) to the origin-major scatter path on
// the same policy: the two must produce identical bits, since the fast
// path is selected by sampler type, not by semantics.
func TestSharedFillMatchesScatterFill(t *testing.T) {
	inst := mustBraess(t)
	pol := mustReplicator(t, inst.LMax())
	f := inst.UniformFlow()
	pl := inst.PathLatencies(f)

	fast := denseRates(inst, pol)
	fast.fill(pol, f, pl)

	slow := denseRates(inst, pol)
	for i := 0; i < inst.NumCommodities(); i++ {
		lo, hi := inst.CommodityRange(i)
		if m := slow.fillRows(pol, i, hi-lo, f[lo:hi], pl[lo:hi]); m > slow.maxRate {
			slow.maxRate = m
		}
	}
	assertRateMatrixEqual(t, fast, slow)
}
