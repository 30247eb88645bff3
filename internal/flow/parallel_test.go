package flow_test

// Differential tests for evaluators running in parallel over one shared
// instance, the way a sweep's workers run tasks on a cached instance: each
// goroutine owns its evaluator, and all of them read the instance's kernel
// (incidence and live-edge latency program), which the first NewEvaluator
// builds. Eval, ApplyDelta and Potential on every such evaluator must
// reproduce a serial evaluator — and therefore the naive reference — bit
// for bit, on the toy topology zoo and on 10⁴-edge instances from the
// large catalog families. Run under -race these tests also prove that the
// kernel's first-use build is safe and that no pass writes shared state.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"wardrop/internal/flow"
	"wardrop/internal/topo"
)

// parallelWorkers is the number of goroutines that evaluate one instance at
// once.
const parallelWorkers = 4

// passResult is a copy of an evaluator's full-pass views.
type passResult struct {
	fe, le, pl []float64
	phi        float64
}

func resultOf(ev *flow.Evaluator) passResult {
	return passResult{
		fe:  append([]float64(nil), ev.EdgeFlows()...),
		le:  append([]float64(nil), ev.EdgeLatencies()...),
		pl:  append([]float64(nil), ev.PathLatencies()...),
		phi: ev.Potential(),
	}
}

func mustEqualResult(t *testing.T, what string, got, want passResult) {
	t.Helper()
	mustEqualBits(t, what+": edge flows", got.fe, want.fe)
	mustEqualBits(t, what+": edge latencies", got.le, want.le)
	mustEqualBits(t, what+": path latencies", got.pl, want.pl)
	mustEqualScalarBits(t, what+": potential", got.phi, want.phi)
}

// TestParallelEvalMatchesSerialBitwise evaluates the same flows on
// parallelWorkers evaluators at once, starting on a fresh instance so that
// their first NewEvaluator calls race the kernel build, and requires every
// full-pass quantity to match a serial evaluator and the naive reference
// bitwise.
func TestParallelEvalMatchesSerialBitwise(t *testing.T) {
	for name, inst := range differentialInstances(t) {
		t.Run(name, func(t *testing.T) {
			rng := &topo.SplitMix{State: 7}
			flows := make([]flow.Vector, 5)
			for trial := range flows {
				flows[trial] = randomFlow(inst, rng)
			}
			got := make([][]passResult, parallelWorkers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ev := flow.NewEvaluator(inst, nil)
					for _, f := range flows {
						ev.Eval(f)
						got[w] = append(got[w], resultOf(ev))
					}
				}()
			}
			wg.Wait()

			ser := flow.NewEvaluator(inst, nil)
			for trial, f := range flows {
				ser.Eval(f)
				want := resultOf(ser)
				fe, le, pl, phi := reference(inst, f)
				mustEqualResult(t, fmt.Sprintf("serial, trial %d, vs reference", trial),
					want, passResult{fe: fe, le: le, pl: pl, phi: phi})
				for w := range got {
					mustEqualResult(t, fmt.Sprintf("worker %d, trial %d", w, trial), got[w][trial], want)
				}
			}
		})
	}
}

// TestParallelIncrementalMatchesSerial400Steps drives parallelWorkers
// evaluators at once through the same 400-step random delta sequence on
// 10⁴-edge instances, then a serial evaluator through it too. After every
// step each parallel evaluator must agree with the serial one bitwise, and
// periodically the serial one must agree with a from-scratch Eval —
// delta-updated state may never drift.
func TestParallelIncrementalMatchesSerial400Steps(t *testing.T) {
	for name, inst := range largeInstances(t) {
		t.Run(name, func(t *testing.T) {
			got := make([][]uint64, parallelWorkers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w] = replayDeltas(inst, nil)
				}()
			}
			wg.Wait()

			fresh := flow.NewEvaluator(inst, nil)
			want := replayDeltas(inst, func(ev *flow.Evaluator, f flow.Vector) {
				fresh.Eval(f)
				mustEqualBits(t, "edge flows vs fresh", ev.EdgeFlows(), fresh.EdgeFlows())
				mustEqualBits(t, "path latencies vs fresh", ev.PathLatencies(), fresh.PathLatencies())
			})
			for w := range got {
				for step := range want {
					if got[w][step] != want[step] {
						t.Fatalf("worker %d, step %d: the evaluator's views differ from the serial evaluator's", w, step)
					}
				}
			}
		})
	}
}

// replayDeltas drives a new evaluator on inst through a fixed 400-step
// random delta sequence and returns, per step, a digest of the flow vector,
// the edge flows and the path latencies — every 50 steps also of the edge
// latencies and the potential, after which check, if not nil, sees the
// evaluator and the flow.
func replayDeltas(inst *flow.Instance, check func(ev *flow.Evaluator, f flow.Vector)) []uint64 {
	rng := &topo.SplitMix{State: 99}
	ev := flow.NewEvaluator(inst, nil)
	f := inst.UniformFlow()
	ev.Eval(f)
	n := inst.NumPaths()
	digests := make([]uint64, 400)
	for step := range digests {
		p := int(rng.Next() % uint64(n))
		q := int(rng.Next() % uint64(n))
		amount := rng.Float64() * f[p]
		ev.ApplyDelta(f, p, q, amount)
		h := mixBits(14695981039346656037, f)
		h = mixBits(h, ev.EdgeFlows())
		h = mixBits(h, ev.PathLatencies())
		if step%50 == 49 {
			h = mixBits(h, ev.EdgeLatencies())
			h = mixBits(h, []float64{ev.Potential()})
			if check != nil {
				check(ev, f)
			}
		}
		digests[step] = h
	}
	return digests
}

// mixBits folds the bit patterns of xs into the FNV-style digest h; each
// fold is a bijection of h, so two sequences that differ in one value give
// different digests.
func mixBits(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}
