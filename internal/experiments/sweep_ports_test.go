package experiments

import (
	"context"
	"testing"

	"wardrop/internal/report"
	"wardrop/internal/sweep"
	"wardrop/internal/topo"
)

// The sweep engine must run E6–E8's cells to the same rounds as the direct
// loops: each test builds the experiment's campaign, runs it on the sweep's
// worker pool, and compares every record's resolved period, unsatisfied
// rounds and completion with the matching table row. The fluid dynamics is
// deterministic, so the comparison is exact.

// sweepRecords runs c and returns its records, one per cell in expansion
// order.
func sweepRecords(t *testing.T, c *sweep.Campaign, cells int) []sweep.Record {
	t.Helper()
	res, err := sweep.Run(context.Background(), c, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != cells {
		t.Fatalf("%d records, want %d", len(res.Records), cells)
	}
	for _, rec := range res.Records {
		if rec.Error != "" {
			t.Fatalf("task %d: %s", rec.ID, rec.Error)
		}
	}
	return res.Records
}

// outcome is what a table row and a sweep record both say about one cell:
// its period, unsatisfied rounds and completion, as the table prints them.
type outcome struct{ T, rounds, complete string }

// checkOutcomes compares each record's outcome with the direct loop's.
func checkOutcomes(t *testing.T, want []outcome, recs []sweep.Record) {
	t.Helper()
	for i, rec := range recs {
		got := outcome{report.F(rec.T), report.I(rec.UnsatisfiedPhases), boolCell(rec.Converged)}
		if got != want[i] {
			t.Errorf("cell %d: sweep %+v, direct loop %+v", i, got, want[i])
		}
	}
}

// mCellOutcomes reads the outcomes of an E6 or E8 table (m, T, rounds,
// complete, bound_shape).
func mCellOutcomes(tbl *report.Table) []outcome {
	var out []outcome
	for _, row := range tbl.Rows {
		out = append(out, outcome{row[1], row[2], row[3]})
	}
	return out
}

func linksTopologies(ms []int) []sweep.Topology {
	var tops []sweep.Topology
	for _, m := range ms {
		tops = append(tops, sweep.Topology{Family: "links", Size: m})
	}
	return tops
}

func TestE6SweepMatchesLegacy(t *testing.T) {
	p := E6Params{
		LinkCounts: []int{2, 4, 8},
		Delta:      0.3, Eps: 0.15,
		Streak: 30, MaxPhases: 30_000,
	}
	tbl, err := RunE6(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := sweepRecords(t, &sweep.Campaign{
		Name:          "e6-uniform-paths",
		Topologies:    linksTopologies(p.LinkCounts),
		Policies:      []sweep.PolicySpec{{Kind: "uniform"}},
		UpdatePeriods: []sweep.Period{{Safe: true}},
		MaxPhases:     p.MaxPhases,
		Start:         "worst",
		Delta:         p.Delta,
		Eps:           p.Eps,
		Streak:        p.Streak,
	}, len(tbl.Rows))
	checkOutcomes(t, mCellOutcomes(tbl), recs)
}

func TestE7SweepMatchesLegacy(t *testing.T) {
	p := E7Params{
		Links:  4,
		Deltas: []float64{0.6, 0.3, 0.15},
		Eps:    0.15,
		Streak: 30, MaxPhases: 60_000,
	}
	tbl, err := RunE7(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := sweepRecords(t, &sweep.Campaign{
		Name:          "e7-uniform-delta",
		Topologies:    linksTopologies([]int{p.Links}),
		Policies:      []sweep.PolicySpec{{Kind: "uniform"}},
		UpdatePeriods: []sweep.Period{{Safe: true}},
		MaxPhases:     p.MaxPhases,
		Start:         "worst",
		Deltas:        p.Deltas,
		Eps:           p.Eps,
		Streak:        p.Streak,
	}, len(tbl.Rows))
	// E7's rows (delta, rounds, complete, bound_shape) print no T: every
	// cell runs at the one instance's safe period.
	inst, err := topo.LinearParallelLinks(p.Links)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := uniformLinearFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := safeT(inst, pol)
	if err != nil {
		t.Fatal(err)
	}
	var want []outcome
	for i, row := range tbl.Rows {
		if got := report.F(recs[i].Delta); got != row[0] {
			t.Errorf("cell %d: sweep delta = %s, direct loop %s", i, got, row[0])
		}
		want = append(want, outcome{report.F(safe), row[1], row[2]})
	}
	checkOutcomes(t, want, recs)
}

func TestE8SweepMatchesLegacy(t *testing.T) {
	p := E8Params{
		LinkCounts: []int{2, 8, 32},
		Delta:      0.3, Eps: 0.15,
		Streak: 30, MaxPhases: 30_000,
	}
	tbl, err := RunE8(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := sweepRecords(t, &sweep.Campaign{
		Name:          "e8-proportional",
		Topologies:    linksTopologies(p.LinkCounts),
		Policies:      []sweep.PolicySpec{{Kind: "replicator"}},
		UpdatePeriods: []sweep.Period{{Safe: true}},
		MaxPhases:     p.MaxPhases,
		Start:         "skewed",
		Delta:         p.Delta,
		Eps:           p.Eps,
		Weak:          true,
		Streak:        p.Streak,
	}, len(tbl.Rows))
	checkOutcomes(t, mCellOutcomes(tbl), recs)
}
