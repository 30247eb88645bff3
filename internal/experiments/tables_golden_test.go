package experiments

import (
	"os"
	"strings"
	"testing"

	"wardrop/internal/report"
)

// TestTablesGolden pins every paper table at default parameters, byte for
// byte. testdata/tables.golden is exactly the stdout of
//
//	go run ./cmd/wardbench -exp e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,ablation,e6c,e7c,e8c
//
// so that command regenerates it.
func TestTablesGolden(t *testing.T) {
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	counts := []func() (*report.Table, error){
		func() (*report.Table, error) { return RunE6Count(DefaultE6Params(), CountPopulation) },
		func() (*report.Table, error) { return RunE7Count(DefaultE7Params(), CountPopulation) },
		func() (*report.Table, error) { return RunE8Count(DefaultE8Params(), CountPopulation) },
	}
	for _, run := range counts {
		tbl, err := run()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.Render())
		b.WriteString("\n")
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
