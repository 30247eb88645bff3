// Command wardbench regenerates the paper's quantitative artefacts (E1–E12,
// the step-size ablation, and E6–E8 on the count engine) and prints them as
// aligned tables, optionally emitting CSV files per experiment.
//
// Usage:
//
//	wardbench                              # run everything
//	wardbench -exp e1,e8                   # run a subset
//	wardbench -csv out/                    # also write one CSV per table
//	wardbench -benchjson BENCH_kernel.json # also emit machine-readable results
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wardrop/internal/experiments"
	"wardrop/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wardbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wardbench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (e1..e12, ablation, e6c, e7c, e8c) or 'all' on its own")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV files (optional)")
	benchJSON := fs.String("benchjson", "", "file to write machine-readable results (ns, allocs, headline metric per experiment plus kernel-vs-reference benchmarks)")
	benchGrid := fs.Int("benchgrid", 6, "grid size for the kernel benchmark suite in -benchjson (0 skips the suite)")
	benchScale := fs.String("benchscale", "", "comma-separated edge counts for the kernelScaling suite in -benchjson, e.g. 10000,30000,100000 (empty skips the suite)")
	benchServe := fs.Bool("benchserve", true, "include the serving-layer suite (cached vs uncached scenario requests) in -benchjson")
	benchLoad := fs.String("benchload", "1,2,4,8,16", "comma-separated client counts for the serveLoad ramp in -benchjson (empty skips the suite)")
	benchMeanfield := fs.Bool("benchmeanfield", true, "include the population-scaling suite (count vs per-agent engine) in -benchjson")
	benchDispatch := fs.Bool("benchdispatch", true, "include the distributed-sweep suite (local vs cold/warm fleet) in -benchjson")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scaleSizes []int
	if *benchScale != "" {
		for _, s := range strings.Split(*benchScale, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-benchscale: bad edge count %q", s)
			}
			scaleSizes = append(scaleSizes, n)
		}
	}
	var loadClients []int
	if *benchLoad != "" {
		for _, s := range strings.Split(*benchLoad, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-benchload: bad client count %q", s)
			}
			loadClients = append(loadClients, n)
		}
	}

	runners := map[string]func() (*report.Table, error){
		"e1":  func() (*report.Table, error) { return experiments.RunE1(experiments.DefaultE1Params()) },
		"e2":  func() (*report.Table, error) { return experiments.RunE2(experiments.DefaultE2Params()) },
		"e3":  func() (*report.Table, error) { return experiments.RunE3(experiments.DefaultE3Params()) },
		"e4":  func() (*report.Table, error) { return experiments.RunE4(experiments.DefaultE4Params()) },
		"e5":  func() (*report.Table, error) { return experiments.RunE5(experiments.DefaultE5Params()) },
		"e6":  func() (*report.Table, error) { return experiments.RunE6(experiments.DefaultE6Params()) },
		"e7":  func() (*report.Table, error) { return experiments.RunE7(experiments.DefaultE7Params()) },
		"e8":  func() (*report.Table, error) { return experiments.RunE8(experiments.DefaultE8Params()) },
		"e9":  func() (*report.Table, error) { return experiments.RunE9(experiments.DefaultE9Params()) },
		"e10": func() (*report.Table, error) { return experiments.RunE10(experiments.DefaultE10Params()) },
		"e11": func() (*report.Table, error) { return experiments.RunE11(experiments.DefaultE11Params()) },
		"e12": func() (*report.Table, error) { return experiments.RunE12(experiments.DefaultE12Params()) },
		"ablation": func() (*report.Table, error) {
			return experiments.RunAblationStep(experiments.DefaultAblationStepParams())
		},
		// e6c/e7c/e8c run the scaling experiments on the mean-field count
		// engine at a four-million-agent population: same verdicts, finite-N
		// dynamics.
		"e6c": func() (*report.Table, error) {
			return experiments.RunE6Count(experiments.DefaultE6Params(), experiments.CountPopulation)
		},
		"e7c": func() (*report.Table, error) {
			return experiments.RunE7Count(experiments.DefaultE7Params(), experiments.CountPopulation)
		},
		"e8c": func() (*report.Table, error) {
			return experiments.RunE8Count(experiments.DefaultE8Params(), experiments.CountPopulation)
		},
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "ablation"}

	var ids []string
	if *expFlag == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := runners[id]; !ok {
				return fmt.Errorf("unknown experiment %q (known: %s, e6c, e7c, e8c; or 'all' on its own)", id, strings.Join(order, ", "))
			}
			ids = append(ids, id)
		}
	}

	var exps []expEntry
	for _, id := range ids {
		var m0 runtime.MemStats
		var start time.Time
		if *benchJSON != "" {
			runtime.ReadMemStats(&m0)
			start = time.Now()
		}
		tbl, err := runners[id]()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *benchJSON != "" {
			wall := time.Since(start)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			e := expEntry{ID: id, WallNs: float64(wall.Nanoseconds()), AllocsPerOp: int64(m1.Mallocs - m0.Mallocs)}
			e.Metric, e.Value, _ = headline(id, tbl)
			exps = append(exps, e)
		}
		fmt.Println(tbl.Render())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tbl.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			return err
		}
		if err := writeBenchJSON(f, *benchGrid, scaleSizes, *benchServe, loadClients, *benchMeanfield, *benchDispatch, exps); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return nil
}
