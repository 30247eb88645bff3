package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wardrop/internal/flow"
)

// taskTestCampaign is a small deterministic fluid campaign shared by the
// task-spec tests.
func taskTestCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := ParseCampaign(strings.NewReader(`{
		"name": "taskspec",
		"topologies": [{"family":"pigou"},{"family":"braess"}],
		"policies": [{"kind":"replicator"},{"kind":"uniform"}],
		"updatePeriods": [0.05],
		"seeds": 2,
		"maxPhases": 25,
		"delta": 0.3,
		"eps": 0.15
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunTaskSpecMatchesLocalRun is the distributed layer's foundation: a
// task run through its self-contained spec must reproduce the in-campaign
// record exactly (after rebinding the bookkeeping identity the spec does
// not carry).
func TestRunTaskSpecMatchesLocalRun(t *testing.T) {
	c := taskTestCampaign(t)
	res, err := Run(context.Background(), c, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks := res.Tasks
	cache := NewInstanceCache()
	ws := flow.NewWorkspace()
	for _, task := range tasks {
		if err := task.Validate(); err != nil {
			t.Fatalf("task %d spec invalid: %v", task.ID, err)
		}
		rec, aborted := RunTaskSpec(context.Background(), &task.TaskSpec, cache, ws)
		if aborted {
			t.Fatalf("task %d aborted without cancellation", task.ID)
		}
		rec.ID, rec.SeedIndex = task.ID, task.SeedIndex
		want := res.Records[task.ID]
		if CanonicalRecord(rec) != CanonicalRecord(want) {
			t.Errorf("task %d: spec run %+v != local run %+v", task.ID, rec, want)
		}
	}
}

func TestTaskSpecFingerprintCoversRunShape(t *testing.T) {
	c := taskTestCampaign(t)
	tasks, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	spec := &tasks[0].TaskSpec
	fp1, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint covers the campaign scalars — the durable store is
	// shared across campaigns.
	longer := *spec
	longer.MaxPhases = 50
	fp2, err := longer.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Error("fingerprint unchanged by a run-shape edit")
	}
	// Field order and whitespace are irrelevant: parse a reordered spelling
	// and compare.
	reordered, err := ParseTaskSpec(strings.NewReader(`{
		"seed": ` + uitoa(spec.Seed) + `,
		"maxPhases": 25, "eps": 0.15, "delta": 0.3,
		"period": 0.05,
		"policy": {"kind":"replicator"},
		"topology": {"family":"pigou"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := reordered.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Errorf("reordered spelling fingerprints %s, want %s", fp3, fp1)
	}
}

func uitoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// wireCampaignDoc crosses a counts axis with a named timelines entry and
// sets every run-shape scalar, so its task specs carry the omitempty fields
// campaignDocA's leave out.
const wireCampaignDoc = `{
  "name": "wire",
  "topologies": [{"family": "links", "size": 3}],
  "policies": [{"kind": "boltzmann", "c": 2}],
  "updatePeriods": [0.1],
  "counts": [5000],
  "timelines": [{"name": "rush", "schedules": [{"kind": "pwl", "times": [0, 1], "factors": [1, 0.5]}]}],
  "seeds": 2,
  "baseSeed": 11,
  "horizon": 4,
  "start": "skewed",
  "delta": 0.2,
  "eps": 0.1,
  "weak": true,
  "streak": 3
}`

// TestTaskSpecWireGolden pins a task's /v1/tasks body and its fingerprint,
// the key a shared result store holds the task's record under: changing
// either silently turns every stored result into a miss.
func TestTaskSpecWireGolden(t *testing.T) {
	for _, tc := range []struct {
		doc      string
		id       int
		body, fp string
	}{
		{campaignDocA, 0,
			`{"topology":{"family":"pigou"},"policy":{"kind":"replicator"},"period":"safe","delta":0.3,"seed":12415408236704183073,"maxPhases":20,"eps":0.15}`,
			"91cc0e3e435bdc1dd1deaebf36210e7b314d9f492998da1c83140aab98069ee4"},
		{wireCampaignDoc, 1,
			`{"topology":{"family":"links","size":3},"policy":{"kind":"boltzmann","c":2},"period":0.1,"count":5000,"delta":0.2,"timeline":{"name":"rush","schedules":[{"kind":"pwl","times":[0,1],"factors":[1,0.5]}]},"seed":18170796465360764947,"horizon":4,"start":"skewed","eps":0.1,"weak":true,"streak":3}`,
			"fdcd76ec662da97ac4833bb4712eda819025a8fa14497ecc124b1d2e2d5b5b93"},
	} {
		c := parseCampaignDoc(t, tc.doc)
		tasks, err := c.Expand()
		if err != nil {
			t.Fatal(err)
		}
		spec := &tasks[tc.id].TaskSpec
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.body {
			t.Errorf("%s task %d: body\n%s\nwant pinned\n%s", c.Name, tc.id, body, tc.body)
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.fp {
			t.Errorf("%s task %d: fingerprint %s, want pinned %s", c.Name, tc.id, fp, tc.fp)
		}
	}
}

func TestParseTaskSpecRejectsBadDocuments(t *testing.T) {
	for _, doc := range []string{
		``,
		`{"topology":{"family":"pigou"}}`, // no policy/period/shape
		`{"topology":{"family":"nope"},"policy":{"kind":"uniform"},"period":1,"horizon":1}`,                       // unknown family
		`{"topology":{"family":"pigou"},"policy":{"kind":"uniform"},"period":1,"horizon":1,"bogus":3}`,            // unknown field
		`{"topology":{"family":"pigou"},"policy":{"kind":"uniform"},"period":1,"horizon":1,"agents":5,"count":5}`, // both populations
		`{"topology":{"family":"pigou"},"policy":{"kind":"uniform"},"period":1,"horizon":1,"streak":-1}`,          // negative streak
	} {
		if _, err := ParseTaskSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		} else if !errors.Is(err, ErrBadCampaign) {
			t.Errorf("%s: error %v does not wrap ErrBadCampaign", doc, err)
		}
	}
}

// TestEncodeRecordsCanonical pins the canonical stream properties: sorted by
// ID, wallMs absent, byte-identical across shuffled input orders.
func TestEncodeRecordsCanonical(t *testing.T) {
	recs := []Record{
		{ID: 2, Topology: "b", WallMS: 3.5},
		{ID: 0, Topology: "a", WallMS: 1.25},
		{ID: 1, Topology: "c", WallMS: 99},
	}
	var buf1 bytes.Buffer
	if err := EncodeRecords(&buf1, recs); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf1.String(), "wallMs") {
		t.Errorf("canonical stream leaks wallMs:\n%s", buf1.String())
	}
	var buf2 bytes.Buffer
	if err := EncodeRecords(&buf2, []Record{recs[2], recs[0], recs[1]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("canonical stream depends on input order:\n%s\nvs\n%s", buf1.String(), buf2.String())
	}
	lines := strings.Split(strings.TrimSpace(buf1.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"a"`) || !strings.Contains(lines[2], `"b"`) {
		t.Errorf("canonical stream not ID-sorted:\n%s", buf1.String())
	}
	// The input slice order is the caller's; EncodeRecords must not mutate it.
	if recs[0].ID != 2 {
		t.Error("EncodeRecords reordered the caller's slice")
	}
}
