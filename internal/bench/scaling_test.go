package bench

import "testing"

// A small scaling point exercises the whole pipeline: the generator and its
// build time, the measurements, the derived ratio and the solver
// cross-check.
func TestScalingSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	ms, err := ScalingSuite([]int{600})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d measurements, want 1", len(ms))
	}
	m := ms[0]
	if m.Family != "sparse-random" || m.Edges != 600 || m.ActualEdges != 600 {
		t.Errorf("shape = %+v, want sparse-random with exactly 600 edges", m)
	}
	if m.Paths <= 0 {
		t.Errorf("paths = %d, want > 0", m.Paths)
	}
	if m.LiveEdges <= 0 || m.LiveEdges > m.ActualEdges {
		t.Errorf("live edges = %d, want in (0, %d]", m.LiveEdges, m.ActualEdges)
	}
	if m.BuildNs <= 0 || m.ReferenceNs <= 0 || m.SerialNs <= 0 || m.WarmRunNs <= 0 {
		t.Errorf("non-positive timing: %+v", m)
	}
	if m.WarmRunBytes <= 0 {
		t.Errorf("warm run bytes = %d, want > 0 (a run allocates its driver)", m.WarmRunBytes)
	}
	if m.Speedup != m.ReferenceNs/m.SerialNs {
		t.Errorf("speedup = %g, want referenceNs/serialNs", m.Speedup)
	}
	if m.SolverIters <= 0 || m.SolverPotential <= 0 {
		t.Errorf("solver cross-check missing: %+v", m)
	}
}

func TestScalingSuiteRejectsBadSize(t *testing.T) {
	if _, err := ScalingSuite([]int{4}); err == nil {
		t.Error("edge count below the generator's minimum accepted")
	}
}
