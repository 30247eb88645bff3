package sweep

import (
	"fmt"

	"wardrop/internal/canon"
)

// Canonical renders the campaign in its canonical JSON form (object keys
// sorted, whitespace stripped; see internal/canon).
func (c *Campaign) Canonical() ([]byte, error) {
	return canon.Canonical(c)
}

// Fingerprint is the canonical-JSON SHA-256 of the campaign — the stable
// identity the serving layer keys campaign jobs and their cached summaries
// on. Field order and whitespace are irrelevant; any semantic edit (an axis
// value, a run-shape scalar) changes the hash.
func (c *Campaign) Fingerprint() (string, error) {
	return canon.Fingerprint(c)
}

// Unit is one dedup class of a campaign's tasks: every task whose spec has
// the fingerprint, in expansion order. Tasks[0] runs, and every task of the
// unit gets that outcome as its record (see Send).
type Unit struct {
	Fingerprint string
	Tasks       []Task
}

// Units groups tasks by spec fingerprint in order of first occurrence, so a
// campaign without duplicate cells yields one unit per task, in task order.
// Local and distributed runs schedule the same units.
func Units(tasks []Task) ([]Unit, error) {
	units := make([]Unit, 0, len(tasks))
	index := make(map[string]int, len(tasks))
	for i := range tasks {
		fp, err := tasks[i].Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("sweep: task %d: %w", tasks[i].ID, err)
		}
		if j, ok := index[fp]; ok {
			units[j].Tasks = append(units[j].Tasks, tasks[i])
			continue
		}
		index[fp] = len(units)
		// The capacity limit makes a duplicate's append copy instead of
		// overwriting tasks[i+1].
		units = append(units, Unit{Fingerprint: fp, Tasks: tasks[i : i+1 : i+1]})
	}
	return units, nil
}

// Send hands rec to ch once for each task of the unit, with the task's ID
// and SeedIndex rebound: the tasks share one spec, hence one outcome.
func (u Unit) Send(ch chan<- Record, rec Record) {
	for _, t := range u.Tasks {
		rec.ID, rec.SeedIndex = t.ID, t.SeedIndex
		ch <- rec
	}
}
