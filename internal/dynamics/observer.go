package dynamics

import (
	"fmt"
	"io"

	"wardrop/internal/flow"
)

// Observer receives every phase start of a simulation run. Observers
// compose (MultiObserver), carry state (TrajectoryRecorder,
// EquilibriumStopper, Accountant), and plug into every engine — fluid, best
// response, agents, count, Hedge — through RunShape.Observer.
type Observer interface {
	// ObservePhase is called once per phase start with the current state.
	// Returning true stops the run after the call (the phase is not
	// integrated).
	ObservePhase(PhaseInfo) bool
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(PhaseInfo) bool

// ObservePhase calls f.
func (f ObserverFunc) ObservePhase(info PhaseInfo) bool { return f(info) }

// MultiObserver fans each phase out to every observer. All observers see
// every phase — there is no short-circuit — and the run stops if any of them
// asked to stop. A nil entry is skipped; composing zero observers yields a
// no-op.
func MultiObserver(obs ...Observer) Observer {
	flat := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return flat
}

type multiObserver []Observer

// ObservePhase delivers the phase to every child observer.
func (m multiObserver) ObservePhase(info PhaseInfo) bool {
	stop := false
	for _, o := range m {
		if o.ObservePhase(info) {
			stop = true
		}
	}
	return stop
}

// TrajectoryRecorder records a Sample every Every phases (Every <= 1 records
// all) into Samples. Flows are cloned, so samples stay valid after the run.
type TrajectoryRecorder struct {
	// Every is the recording stride in phases.
	Every int
	// Samples accumulates the recorded trajectory.
	Samples []Sample
}

// ObservePhase records the phase if it is on the recorder's stride.
func (r *TrajectoryRecorder) ObservePhase(info PhaseInfo) bool {
	every := r.Every
	if every < 1 {
		every = 1
	}
	if info.Index%every == 0 {
		r.Samples = append(r.Samples, Sample{Time: info.Time, Potential: info.Potential, Flow: info.Flow.Clone()})
	}
	return false
}

// EquilibriumStopper stops a run once Streak consecutive phases start at a
// (δ,ε)-equilibrium of the instance, independent of whether the engine's own
// accounting is enabled. It also counts the unsatisfied phases it saw — the
// quantity bounded by Theorems 6 and 7.
//
// A stopper is single-run state: its streak and Unsatisfied counters carry
// across Run calls, so build a fresh one per run (or call Reset between
// runs) when reusing a scenario.
type EquilibriumStopper struct {
	inst *flow.Instance
	acct roundAccounting

	// Unsatisfied counts observed phases not starting at the configured
	// approximate equilibrium.
	Unsatisfied int
}

// NewEquilibriumStopper builds a stopper for the instance. weak selects the
// Definition 4 metric; streak <= 0 never stops (the stopper then only
// counts).
func NewEquilibriumStopper(inst *flow.Instance, delta, eps float64, weak bool, streak int) *EquilibriumStopper {
	return &EquilibriumStopper{inst: inst, acct: newRoundAccounting(delta, eps, weak, streak)}
}

// ObservePhase classifies the phase start and stops on a satisfied streak.
// info is taken by value, so the accounting fields it fills stay local.
func (s *EquilibriumStopper) ObservePhase(info PhaseInfo) bool {
	var scratch Result
	stop := s.acct.observe(s.inst, &info, &scratch)
	s.Unsatisfied += scratch.UnsatisfiedPhases
	return stop
}

// Reset clears the streak and unsatisfied counters so the stopper can be
// reused for another run.
func (s *EquilibriumStopper) Reset() {
	s.acct.streak = 0
	s.Unsatisfied = 0
}

// ProgressReporter writes one line per Every phases (Every <= 1 reports all)
// to W — a lightweight liveness signal for long CLI runs.
type ProgressReporter struct {
	// W receives the progress lines.
	W io.Writer
	// Every is the reporting stride in phases.
	Every int
}

// ObservePhase prints the phase index, time and potential.
func (p *ProgressReporter) ObservePhase(info PhaseInfo) bool {
	every := p.Every
	if every < 1 {
		every = 1
	}
	if p.W != nil && info.Index%every == 0 {
		fmt.Fprintf(p.W, "phase %d t=%g phi=%g\n", info.Index, info.Time, info.Potential)
	}
	return false
}
