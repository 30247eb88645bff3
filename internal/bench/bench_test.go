package bench

import (
	"math"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// TestReferenceFluidMatchesKernel pins the benchmark's two sides to each
// other: on Grid(4), whose 20 paths stay on the fluid engine's dense rate
// matrix, the seed pipeline copy and the rebuilt engine must produce the
// same final potential bit-for-bit — the kernel is a drop-in replacement,
// not an approximation.
func TestReferenceFluidMatchesKernel(t *testing.T) {
	w, err := NewGridWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	ref := w.ReferenceFluid()
	ker, err := w.KernelFluid(flow.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ref) != math.Float64bits(ker) {
		t.Fatalf("final potential: reference %v (%#x) != kernel %v (%#x)",
			ref, math.Float64bits(ref), ker, math.Float64bits(ker))
	}
}

func TestSpeedupPairing(t *testing.T) {
	ms := []Measurement{
		{Name: "x/reference", NsPerOp: 30},
		{Name: "x/kernel", NsPerOp: 10},
	}
	s, err := Speedup(ms, "x")
	if err != nil || s != 3 {
		t.Fatalf("speedup = %v, %v; want 3, nil", s, err)
	}
	if _, err := Speedup(ms, "y"); err == nil {
		t.Fatal("missing pair must error")
	}
}

// BenchmarkFluidGrid is the tentpole acceptance benchmark: the seed fluid
// pipeline vs the compiled kernel on a 6×6 grid (252 lattice paths).
func BenchmarkFluidGrid(b *testing.B) {
	w, err := NewGridWorkload(6)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = w.ReferenceFluid()
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ws := flow.NewWorkspace()
		if _, err := w.KernelFluid(ws); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.KernelFluid(ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalGrid isolates the full state evaluation (edge flows, edge
// latencies, path latencies, potential): naive reference vs CSR + batch
// kernels.
func BenchmarkEvalGrid(b *testing.B) {
	w, err := NewGridWorkload(6)
	if err != nil {
		b.Fatal(err)
	}
	f := w.Inst.UniformFlow()
	b.Run("reference", func(b *testing.B) {
		fe := make([]float64, w.Inst.Graph().NumEdges())
		le := make([]float64, w.Inst.Graph().NumEdges())
		pl := make([]float64, w.Inst.NumPaths())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = w.ReferenceEval(f, fe, le, pl)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ev := flow.NewEvaluator(w.Inst, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Eval(f)
			_ = ev.Potential()
		}
	})
}

// BenchmarkDeltaLinks isolates a sparse two-path move on 256 parallel
// links — the disjoint-path regime agent phases live in, where the
// incremental update touches 2 of 256 edges.
func BenchmarkDeltaLinks(b *testing.B) {
	links, err := topo.LinearParallelLinks(256)
	if err != nil {
		b.Fatal(err)
	}
	f := links.UniformFlow()
	lo, hi := links.CommodityRange(0)
	b.Run("reference", func(b *testing.B) {
		fe := make([]float64, links.Graph().NumEdges())
		le := make([]float64, links.Graph().NumEdges())
		pl := make([]float64, links.NumPaths())
		amt := f[lo] / 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f[lo] -= amt
			f[hi-1] += amt
			links.EdgeFlows(f, fe)
			links.EdgeLatencies(fe, le)
			links.PathLatenciesFromEdges(le, pl)
			_ = links.PotentialFromEdges(fe)
			amt = -amt
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ev := flow.NewEvaluator(links, nil)
		ev.Eval(f)
		_ = ev.Potential()
		amt := f[lo] / 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.ApplyDelta(f, lo, hi-1, amt)
			_ = ev.Potential()
			amt = -amt
		}
	})
}

// BenchmarkDeltaGrid isolates a sparse two-path flow move: reference full
// recomputation vs the evaluator's incremental update.
func BenchmarkDeltaGrid(b *testing.B) {
	w, err := NewGridWorkload(6)
	if err != nil {
		b.Fatal(err)
	}
	f := w.Inst.UniformFlow()
	lo, hi := w.Inst.CommodityRange(0)
	p, q := lo, hi-1
	b.Run("reference", func(b *testing.B) {
		fe := make([]float64, w.Inst.Graph().NumEdges())
		le := make([]float64, w.Inst.Graph().NumEdges())
		pl := make([]float64, w.Inst.NumPaths())
		amt := f[p] / 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f[p] -= amt
			f[q] += amt
			_ = w.ReferenceEval(f, fe, le, pl)
			amt = -amt
		}
	})
	b.Run("kernel", func(b *testing.B) {
		ev := flow.NewEvaluator(w.Inst, nil)
		ev.Eval(f)
		_ = ev.Potential()
		amt := f[p] / 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.ApplyDelta(f, p, q, amt)
			_ = ev.Potential()
			amt = -amt
		}
	})
}
