// Command urpsm-bench regenerates the tables and figures of the paper's
// evaluation (§6) on synthetic NYC-like and Chengdu-like workloads.
//
// Usage:
//
//	urpsm-bench -exp fig3 -dataset chengdu -scale 0.05 -repeat 3
//	urpsm-bench -exp all -dataset both -scale 0.02 -csv out/
//	urpsm-bench -exp batchdist -dataset chengdu -oracle hub
//
// Experiments: table4, fig3 (vary |W|), fig4 (vary K_w), fig5 (vary grid
// size g, with index memory), fig6 (vary deadline e_r, with saved distance
// queries), fig7 (vary penalty p_r), hardness (§3.3 constructions),
// insertion (§4 operator scaling ablation), ablation (planner and oracle
// design-choice ablations), batchdist (point vs batched-table distance
// queries across admission-batch sizes; -oracle hub or ch, the tiers with
// a table), all.
//
// -oracle picks the distance oracle, where "auto" selects the strongest
// tier whose preprocessing fits the graph size (see DESIGN.md §8.3).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/expt"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table4|fig3|fig4|fig5|fig6|fig7|hardness|insertion|ablation|batchdist|all (batchdist needs -oracle hub or ch)")
		dataset  = flag.String("dataset", "both", "dataset: chengdu|nyc|both")
		scale    = flag.Float64("scale", 0.03, "workload scale factor in (0,1]")
		repeat   = flag.Int("repeat", 1, "repetitions per configuration (paper: 30)")
		algos    = flag.String("algos", strings.Join(expt.Algorithms, ","), "comma-separated algorithms")
		csvDir   = flag.String("csv", "", "also write CSV files into this directory")
		oracle   = cliutil.OracleFlag("hub")
		traceOut = cliutil.TraceFlag()
	)
	flag.Parse()
	if err := cliutil.CheckOracle(*oracle); err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-bench:", err)
		os.Exit(1)
	}
	if err := run(*exp, *dataset, *scale, *repeat, splitList(*algos), *csvDir, *oracle, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-bench:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(exp, dataset string, scale float64, repeat int, algos []string, csvDir string, oracle, traceFile string) error {
	var presets []workload.Params
	switch strings.ToLower(dataset) {
	case "chengdu":
		presets = []workload.Params{workload.ChengduLike(scale)}
	case "nyc":
		presets = []workload.Params{workload.NYCLike(scale)}
	case "both":
		presets = []workload.Params{workload.ChengduLike(scale), workload.NYCLike(scale)}
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}

	wantFig := func(name string) bool { return exp == name || exp == "all" }

	// One flight recorder shared by every runner: the file retains the
	// most recent plan events across all experiments and datasets.
	var rec *trace.Recorder
	if traceFile != "" {
		maxReq := 0
		for _, p := range presets {
			maxReq = max(maxReq, p.NumRequests)
		}
		rec = cliutil.NewRecorder(maxReq)
	}

	// Dataset-independent experiments first.
	if wantFig("insertion") {
		fmt.Println("== Insertion operator scaling (§4: cubic vs quadric vs linear) ==")
		pts, err := expt.InsertionScaling([]int{4, 8, 16, 32, 64, 128}, 200)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatInsertionScaling(pts))
	}
	if wantFig("hardness") {
		fmt.Println("== Empirical hardness (§3.3, Theorem 1) ==")
		for _, v := range []workload.AdversaryVariant{
			workload.AdvServedCount, workload.AdvRevenue, workload.AdvDistance,
		} {
			pts, err := expt.Hardness(v, []int{4, 8, 16, 32, 64, 128}, 200)
			if err != nil {
				return err
			}
			fmt.Println(expt.FormatHardness(pts))
		}
	}

	var table4 []expt.DatasetStats
	for _, preset := range presets {
		fmt.Printf("== Dataset %s (scale %.3g): generating network and distance oracle ==\n", preset.Name, scale)
		runner, err := expt.NewRunner(preset, repeat)
		if err != nil {
			return err
		}
		runner.OracleKind = oracle
		if rec != nil {
			runner.Observer = rec
		}
		desc, err := runner.OracleDescription()
		if err != nil {
			return err
		}
		fmt.Printf("   |V|=%d |E|=%d oracle=%s\n",
			runner.G.NumVertices(), runner.G.NumEdges(), desc)

		// Only hub and ch have a table; "all" skips the sweep elsewhere.
		kind := strings.TrimPrefix(strings.Fields(desc)[0], "auto→")
		if exp == "batchdist" || exp == "all" && (kind == "hub" || kind == "ch") {
			pts, err := runner.BatchDistSweep([]int{1, 4, 8, 16, 32})
			if err != nil {
				return err
			}
			fmt.Print(expt.FormatBatchDistSweep(preset.Name, pts))
			fmt.Println()
		}

		if wantFig("table4") {
			st, err := runner.Table4()
			if err != nil {
				return err
			}
			table4 = append(table4, st)
		}
		if wantFig("ablation") {
			if err := runAblations(runner); err != nil {
				return err
			}
		}
		type figFn struct {
			name string
			fn   func([]string) (expt.Series, error)
		}
		for _, f := range []figFn{
			{"fig3", runner.Fig3}, {"fig4", runner.Fig4}, {"fig5", runner.Fig5},
			{"fig6", runner.Fig6}, {"fig7", runner.Fig7},
		} {
			if !wantFig(f.name) {
				continue
			}
			s, err := f.fn(algos)
			if err != nil {
				return err
			}
			fmt.Print(expt.FormatSeries(s))
			if csvDir != "" {
				if err := writeCSV(csvDir, s); err != nil {
					return err
				}
			}
		}
	}
	if len(table4) > 0 {
		fmt.Println("== Table 4: dataset statistics ==")
		fmt.Println(expt.FormatTable4(table4))
	}
	if rec != nil {
		return cliutil.WriteTrace(traceFile, rec)
	}
	return nil
}

// runAblations prints the design-choice ablations DESIGN.md calls out:
// the insertion operator inside the full planner, the paper-strict
// decision rule, the local-search extension, and the distance oracle.
func runAblations(runner *expt.Runner) error {
	fmt.Printf("== Ablations (%s) ==\n", runner.Base.Name)
	fmt.Printf("%-24s %14s %10s %12s %14s\n",
		"variant", "unified cost", "served", "response", "dist queries")
	variants := append([]string{"pruneGreedyDP"}, expt.AblationAlgorithms...)
	for _, algo := range variants {
		m, err := runner.RunOne(runner.Base, algo)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %14.0f %9.1f%% %10.3fms %14d\n",
			algo, m.UnifiedCost, 100*m.ServedRate, m.AvgResponseMs, m.DistQueries)
	}
	fmt.Println("\noracle ablation (pruneGreedyDP):")
	fmt.Printf("%-24s %14s %10s %12s\n", "oracle", "unified cost", "served", "response")
	save := runner.OracleKind
	defer func() { runner.OracleKind = save }()
	for _, kind := range []string{"hub", "ch", "bidijkstra"} {
		runner.OracleKind = kind
		m, err := runner.RunOne(runner.Base, "pruneGreedyDP")
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %14.0f %9.1f%% %10.3fms\n",
			kind, m.UnifiedCost, 100*m.ServedRate, m.AvgResponseMs)
	}
	fmt.Println()
	return nil
}

func writeCSV(dir string, s expt.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", s.Figure, strings.ToLower(s.Dataset)))
	return os.WriteFile(name, []byte(expt.FormatSeriesCSV(s)), 0o644)
}
