package main

// Gate mode (-gate): compare a fresh `go test -bench` run on stdin
// against the last run recorded in a checked-in trajectory and fail if
// any shared benchmark regressed beyond the threshold. This is the
// mechanical form of "don't merge a perf PR that quietly gives the win
// back":
//
//	go test -run xxx -bench . . | benchjson -gate -baseline BENCH_PR9.json
//
// Comparison is by ns/op, matched on the benchmark name with the
// -GOMAXPROCS suffix stripped (the same benchmark on an 8-way and a
// 16-way box must still line up). When the recorded CPU model differs
// from the current one the gate degrades to a warning and passes:
// cross-machine ns/op ratios measure the hardware, not the patch.
// Same-machine ratios are corrected for uniform drift (see runGate)
// before the threshold applies.

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
)

// gomaxprocsSuffix strips the trailing "-N" go test appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// nsPerOp indexes a run's ns/op by suffix-stripped benchmark name. With
// `-count` repetitions the minimum wins: the fastest observation is the
// least-noise estimate of what the code costs (scheduler preemption,
// fsync latency and cache pollution only ever add time).
func nsPerOp(r Run) map[string]float64 {
	m := make(map[string]float64, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		v, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(b.Name, "")
		if prev, seen := m[name]; !seen || v < prev {
			m[name] = v
		}
	}
	return m
}

// runGate reads a candidate bench run from in and gates it against the
// newest run in the baseline trajectory. threshold is the allowed
// slowdown ratio (1.25 = fail beyond +25% ns/op).
func runGate(in io.Reader, baselinePath string, threshold float64) error {
	if baselinePath == "" {
		return fmt.Errorf("-gate requires -baseline")
	}
	if threshold <= 1 {
		return fmt.Errorf("-threshold %g must exceed 1", threshold)
	}
	if _, err := os.Stat(baselinePath); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	tr, err := loadTrajectory(baselinePath)
	if err != nil {
		return err
	}
	if len(tr.Runs) == 0 {
		return fmt.Errorf("baseline %s records no runs", baselinePath)
	}
	base := tr.Runs[len(tr.Runs)-1]

	cand, err := parseRun(in)
	if err != nil {
		return err
	}
	if len(cand.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	fmt.Printf("gate: candidate vs %s run %q (commit %s, %d benchmarks), threshold +%.0f%%\n",
		baselinePath, base.Label, base.Commit, len(base.Benchmarks), (threshold-1)*100)
	if base.CPU != "" && cand.CPU != "" && base.CPU != cand.CPU {
		fmt.Printf("gate: SKIPPED — baseline CPU %q != current %q; cross-machine ns/op is not comparable\n",
			base.CPU, cand.CPU)
		return nil
	}

	baseNs, candNs := nsPerOp(base), nsPerOp(cand)
	names := make([]string, 0, len(candNs))
	for name := range candNs {
		names = append(names, name)
	}
	sort.Strings(names)

	// Even on the same CPU model, shared or virtualized hardware drifts:
	// minutes apart, *everything* can measure 1.5x slower (noisy
	// neighbors, thermal state, host fsync load). A patch regression is
	// *relative* — one benchmark slowing while its peers do not — so the
	// gate divides every ratio by the median ratio across the shared set.
	// Uniform drift cancels exactly; a local change of any size, in
	// either direction, leaves the median where it is (a mean would read
	// two rungs getting 200x faster as drift and fail every untouched
	// benchmark). The trade is explicit: a patch slowing most benchmarks
	// by the same factor reads as drift and passes — the printed drift
	// factor is the tell.
	var ratios []float64
	var unmatched int
	for _, name := range names {
		if b, ok := baseNs[name]; ok && b > 0 {
			ratios = append(ratios, candNs[name]/b)
		} else {
			unmatched++
		}
	}
	compared := len(ratios)
	if compared == 0 {
		return fmt.Errorf("no benchmark shared between candidate and baseline — wrong -baseline?")
	}
	sort.Float64s(ratios)
	drift := math.Sqrt(ratios[(compared-1)/2] * ratios[compared/2])
	if compared < 5 {
		// Too few peers to tell drift from regression — with one shared
		// benchmark the median IS its ratio and would absolve anything.
		drift = 1
		fmt.Printf("gate: %d shared benchmark(s) — too few to estimate drift; ratios below are raw\n", compared)
	} else {
		fmt.Printf("gate: machine drift %.2fx (median ratio over %d shared benchmarks; ratios below are drift-corrected)\n",
			drift, compared)
	}

	var regressions int
	for _, name := range names {
		b, ok := baseNs[name]
		if !ok || b <= 0 {
			continue
		}
		ratio := candNs[name] / b / drift
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-60s %12.0f -> %12.0f ns/op  (%.2fx) %s\n",
			name, b, candNs[name], ratio, verdict)
	}
	if unmatched > 0 {
		fmt.Printf("gate: %d candidate benchmark(s) not in the baseline (new or renamed; not gated)\n", unmatched)
	}
	if regressions > 0 {
		return fmt.Errorf("%d of %d benchmark(s) regressed beyond %.2fx", regressions, compared, threshold)
	}
	fmt.Printf("gate: PASS — %d benchmark(s) within %.2fx of baseline\n", compared, threshold)
	return nil
}
