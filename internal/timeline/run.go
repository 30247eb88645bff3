package timeline

import (
	"context"
	"fmt"

	"wardrop/internal/dynamics"
	"wardrop/internal/engine"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// PolicyBuilder rebuilds the rerouting policy for one segment's instance.
// Policies are sized to instance invariants (the linear migrator's 1/ℓmax
// smoothing in particular), so a segment that raises ℓmax — a block event —
// needs its policy rebuilt to keep migration probabilities in [0, 1]. A nil
// builder reuses sc.Policy for every segment (correct for the best-response
// engine, which ignores the policy).
type PolicyBuilder func(*flow.Instance) (policy.Policy, error)

// Run executes a compiled timeline program on the scenario's engine, one
// stationary engine run per segment:
//
//   - the segment's final flow seeds the next segment, rescaled per
//     commodity to the new demand and re-projected onto the feasible set
//     (the stochastic engines then redistribute their fixed population
//     proportionally — mass rescaling at the boundary);
//   - stochastic engine seeds are re-derived per segment
//     (topo.DeriveSeed(seed, segment)), so segments draw independent
//     randomness streams while staying fully deterministic;
//   - observers see one continuous run: phase indices and times are offset
//     by the completed segments, and trajectory recording (sc.RecordEvery)
//     strides globally across segment boundaries;
//   - sc.StopAfterSatisfiedStreak applies only to the final segment — an
//     equilibrium reached before an incident must not end the run early —
//     while a stop requested by a caller observer ends the whole run;
//   - each event taking effect is reported to onEvent (if non-nil) as it is
//     replayed, and the full list is returned.
//
// The scenario's Instance and Horizon are taken from the program; Delta,
// Eps and Weak accounting runs per segment against that segment's instance.
// On cancellation the partial aggregate accumulated so far is returned with
// the context error, mirroring engine.Run. A nil program is a stationary
// run: Run returns engine.Run(ctx, sc, opts...) and no events.
func Run(ctx context.Context, prog *Program, sc engine.Scenario, buildPolicy PolicyBuilder, onEvent func(AppliedEvent), opts ...engine.RunOption) (*engine.Result, []AppliedEvent, error) {
	if prog == nil {
		res, err := engine.Run(ctx, sc, opts...)
		return res, nil, err
	}
	if len(prog.Segments) == 0 {
		return nil, nil, badTimeline(fmt.Errorf("empty program"))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var o engine.Options
	for _, opt := range opts {
		opt(&o)
	}
	var rec *dynamics.TrajectoryRecorder
	if sc.RecordEvery > 0 {
		rec = &dynamics.TrajectoryRecorder{Every: sc.RecordEvery}
	}

	var (
		applied  []AppliedEvent
		total    = &engine.Result{}
		phaseOff int
		f        = sc.InitialFlow
		prev     *flow.Instance
	)
	last := len(prog.Segments) - 1
	for k, seg := range prog.Segments {
		for _, ev := range seg.Events {
			applied = append(applied, ev)
			if onEvent != nil {
				onEvent(ev)
			}
		}

		segSc := sc
		segSc.Instance = seg.Instance
		segSc.Horizon = seg.End - seg.Start
		segSc.Engine = seededEngine(sc.Engine, k)
		segSc.RecordEvery = 0 // recording is handled by the global recorder
		if k < last {
			segSc.StopAfterSatisfiedStreak = 0
		}
		if buildPolicy != nil {
			pol, err := buildPolicy(seg.Instance)
			if err != nil {
				return total, applied, badTimeline(fmt.Errorf("segment %d policy: %w", k, err))
			}
			segSc.Policy = pol
		}
		if f != nil && prev != nil {
			segSc.InitialFlow = rescaleFlow(f, prev, seg.Instance)
		} else {
			segSc.InitialFlow = f
		}

		segObs := makeSegmentObserver(o.Observer, rec, seg.Start, phaseOff)
		segOpts := []engine.RunOption{engine.WithWorkspace(o.Workspace)}
		if segObs != nil {
			segOpts = append(segOpts, engine.WithObserver(segObs))
		}
		res, err := engine.Run(ctx, segSc, segOpts...)
		if res != nil {
			total.Phases += res.Phases
			total.Elapsed = seg.Start + res.Elapsed
			total.UnsatisfiedPhases += res.UnsatisfiedPhases
			total.Final = res.Final
			total.FinalPotential = res.FinalPotential
			phaseOff += res.Phases
			f = res.Final
			prev = seg.Instance
		}
		if err != nil {
			if rec != nil {
				total.Trajectory = rec.Samples
			}
			return total, applied, err
		}
		if res.Stopped {
			// In the final segment a stop is the normal satisfied-streak (or
			// observer) exit; in an earlier one only a caller observer can
			// have stopped — either way the whole run ends here.
			total.Stopped = true
			break
		}
	}
	if rec != nil {
		total.Trajectory = rec.Samples
	}
	return total, applied, nil
}

// seededEngine re-derives the stochastic engines' seed for segment k, so
// each segment consumes an independent randomness stream. Segment 0 keeps
// the configured seed; deterministic engines pass through unchanged.
func seededEngine(e engine.Engine, k int) engine.Engine {
	if k == 0 {
		return e
	}
	switch eng := e.(type) {
	case engine.Agents:
		eng.Seed = topo.DeriveSeed(eng.Seed, uint64(k))
		return eng
	case engine.Count:
		eng.Seed = topo.DeriveSeed(eng.Seed, uint64(k))
		return eng
	default:
		return e
	}
}

// rescaleFlow maps the previous segment's final flow onto the next
// segment's feasible set: each commodity block is scaled by its demand
// ratio, then projected to repair rounding exactly.
func rescaleFlow(f flow.Vector, prev, next *flow.Instance) flow.Vector {
	out := f.Clone()
	for i := 0; i < next.NumCommodities(); i++ {
		oldD := prev.Commodity(i).Demand
		newD := next.Commodity(i).Demand
		if oldD == newD {
			continue
		}
		r := newD / oldD
		lo, hi := next.CommodityRange(i)
		for g := lo; g < hi; g++ {
			out[g] *= r
		}
	}
	next.Project(out, 1e-9)
	return out
}

// makeSegmentObserver composes the caller's observer and the global
// trajectory recorder behind an index/time offset, so both see the
// timeline-global phase numbering.
func makeSegmentObserver(caller dynamics.Observer, rec *dynamics.TrajectoryRecorder, timeOff float64, phaseOff int) dynamics.Observer {
	var inner dynamics.Observer
	switch {
	case caller != nil && rec != nil:
		inner = dynamics.MultiObserver(caller, rec)
	case caller != nil:
		inner = caller
	case rec != nil:
		inner = rec
	default:
		return nil
	}
	return offsetObserver{inner: inner, timeOff: timeOff, phaseOff: phaseOff}
}

// offsetObserver shifts phase times and indices into the timeline-global
// frame before delivery.
type offsetObserver struct {
	inner    dynamics.Observer
	timeOff  float64
	phaseOff int
}

func (w offsetObserver) ObservePhase(info dynamics.PhaseInfo) bool {
	info.Time += w.timeOff
	info.Index += w.phaseOff
	return w.inner.ObservePhase(info)
}
