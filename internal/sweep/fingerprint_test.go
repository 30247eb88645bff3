package sweep

import (
	"context"
	"strings"
	"testing"
)

const (
	campaignDocA = `{
  "name": "fp",
  "topologies": [{"family": "pigou"}],
  "policies": [{"kind": "replicator"}],
  "updatePeriods": ["safe"],
  "maxPhases": 20,
  "delta": 0.3,
  "eps": 0.15
}`
	campaignDocB = `{"eps":0.15,"delta":0.3,"maxPhases":20,
		"updatePeriods":["safe"],"policies":[{"kind":"replicator"}],
		"topologies":[{"family":"pigou"}],"name":"fp"}`
)

// goldenCampaignFingerprint pins the canonical encoding across releases —
// changing it silently invalidates every deployed campaign cache.
const goldenCampaignFingerprint = "f384dacb8732dfa7181397018e9e934a63a913581f88e7344215d03dd5fd87fd"

func parseCampaignDoc(t *testing.T, doc string) *Campaign {
	t.Helper()
	c, err := ParseCampaign(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignFingerprintGolden(t *testing.T) {
	fp, err := parseCampaignDoc(t, campaignDocA).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != goldenCampaignFingerprint {
		t.Fatalf("fingerprint = %s, want pinned %s", fp, goldenCampaignFingerprint)
	}
}

func TestCampaignFingerprintOrderAndWhitespaceInsensitive(t *testing.T) {
	a, err := parseCampaignDoc(t, campaignDocA).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCampaignDoc(t, campaignDocB).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("reordered spellings fingerprint differently: %s vs %s", a, b)
	}
	edited, err := parseCampaignDoc(t, strings.Replace(campaignDocA, `"delta": 0.3`, `"delta": 0.2`, 1)).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if edited == a {
		t.Fatal("editing delta did not change the fingerprint")
	}
}

func TestTaskFingerprintDistinguishesAxes(t *testing.T) {
	c := parseCampaignDoc(t, campaignDocA)
	tasks, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	base, err := tasks[0].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	same := tasks[0]
	same.ID = 99 // bookkeeping fields are not part of the run identity
	if fp, _ := same.Fingerprint(); fp != base {
		t.Fatal("task ID leaked into the run-identity fingerprint")
	}
	diff := tasks[0]
	diff.Agents = 100
	if fp, _ := diff.Fingerprint(); fp == base {
		t.Fatal("population change did not change the task fingerprint")
	}
	diff = tasks[0]
	diff.Seed++
	if fp, _ := diff.Fingerprint(); fp == base {
		t.Fatal("seed change did not change the task fingerprint")
	}
}

// A campaign with a duplicated topology axis entry: the duplicate cells
// share run identities replicate-for-replicate, so the executor must run
// each identity once and clone the duplicate records.
const dupCampaignDoc = `{
  "name": "dup",
  "topologies": [{"family": "pigou"}, {"family": "pigou"}],
  "policies": [{"kind": "replicator"}],
  "updatePeriods": [0.05],
  "seeds": 2,
  "maxPhases": 30,
  "delta": 0.3,
  "eps": 0.15
}`

func TestDedupTasksGroupsDuplicates(t *testing.T) {
	c := parseCampaignDoc(t, dupCampaignDoc)
	tasks, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("expanded %d tasks, want 4", len(tasks))
	}
	units, err := Units(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("dedup produced %d units, want 2 (one per replicate)", len(units))
	}
	total := 0
	for _, u := range units {
		total += len(u.Tasks)
		for _, d := range u.Tasks[1:] {
			if d.Seed != u.Tasks[0].Seed {
				t.Fatalf("unit mixes seeds: rep %d dup %d", u.Tasks[0].Seed, d.Seed)
			}
		}
	}
	if total != len(tasks) {
		t.Fatalf("groups cover %d tasks, want %d", total, len(tasks))
	}
}

func TestRunDedupsDuplicateTasks(t *testing.T) {
	c := parseCampaignDoc(t, dupCampaignDoc)
	res, err := Run(context.Background(), c, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(res.Tasks) {
		t.Fatalf("%d records for %d tasks — dedup dropped duplicate records", len(res.Records), len(res.Tasks))
	}
	// Records arrive sorted by ID; duplicate identities must report
	// identical outcomes (they are clones of one run).
	byID := res.Records
	for i := range byID {
		if byID[i].ID != res.Tasks[i].ID {
			t.Fatalf("record %d has ID %d, want %d", i, byID[i].ID, res.Tasks[i].ID)
		}
	}
	// Task expansion order: topology outermost, seeds innermost — IDs 0,1
	// (first pigou, seeds 0,1) duplicate IDs 2,3 (second pigou, seeds 0,1).
	for s := 0; s < 2; s++ {
		a, b := byID[s], byID[2+s]
		if a.Error != "" || b.Error != "" {
			t.Fatalf("unexpected task errors: %q %q", a.Error, b.Error)
		}
		if a.FinalPotential != b.FinalPotential || a.Phases != b.Phases || a.Seed != b.Seed || a.WallMS != b.WallMS {
			t.Fatalf("duplicate tasks diverged: %+v vs %+v", a, b)
		}
		if b.SeedIndex != s {
			t.Fatalf("cloned record kept the representative's seed index: got %d want %d", b.SeedIndex, s)
		}
	}
}
