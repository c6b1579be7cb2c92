package main

// Agreement between runs of the same code: the benchmark's own noise floor.
// -compare sets two result sets of one seed side by side (plus a hold-out
// seed) and judges each metric × workload against its bound; -spread takes
// sets of different seeds and reports the interquartile spread the way the
// driver computes it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func readSets(files []string) ([]resultSet, error) {
	sets := make([]resultSet, len(files))
	for i, f := range files {
		var err error
		if sets[i], err = readSet(f); err != nil {
			return nil, err
		}
	}
	return sets, nil
}

func (set resultSet) value(workload, metric string) (float64, bool) {
	for _, r := range set.Results {
		if r.Workload == workload {
			mv, ok := r.Metrics[metric]
			return mv.Value, ok
		}
	}
	return 0, false
}

// worsening is by how large a share of a the value b is worse than a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareSets(files []string, stdout, stderr io.Writer) int {
	if len(files) < 2 || len(files) > 3 {
		fmt.Fprintln(stderr, "bench: -compare A.json B.json [HOLDOUT.json]")
		return 2
	}
	sets, err := readSets(files)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, b := sets[0], sets[1]
	type row struct {
		Metric   string   `json:"metric"`
		Workload string   `json:"workload"`
		A        float64  `json:"a"`
		B        float64  `json:"b"`
		Ratio    float64  `json:"ratio_b_over_a"`
		Spread   float64  `json:"spread"`
		Bound    float64  `json:"bound"`
		Verdict  string   `json:"verdict"`
		Holdout  *float64 `json:"holdout,omitempty"`
	}
	var rows []row
	unresolved := 0
	fmt.Fprintf(stdout, "%-18s %-15s %14s %14s %8s %8s %7s  %s\n", "metric", "workload", "A", "B", "B/A", "spread", "bound", "verdict")
	for _, d := range endToEnd {
		for _, p := range workloads {
			va, okA := a.value(p.Name, d.Name)
			vb, okB := b.value(p.Name, d.Name)
			if !okA || !okB {
				continue
			}
			// The spread of two runs is how far apart they are, either way.
			sp := max(worsening(d, va, vb), worsening(d, vb, va))
			r := row{Metric: d.Name, Workload: p.Name, A: va, B: vb, Ratio: ratio(vb, va), Spread: sp, Bound: d.Bound, Verdict: "PASS"}
			if sp > d.Bound {
				r.Verdict = "UNRESOLVED"
				unresolved++
			}
			hold := ""
			if len(sets) == 3 {
				if vh, ok := sets[2].value(p.Name, d.Name); ok {
					r.Holdout = &vh
					hold = fmt.Sprintf("  holdout %.6g", vh)
				}
			}
			rows = append(rows, r)
			fmt.Fprintf(stdout, "%-18s %-15s %14.6g %14.6g %8.4f %8.4f %7.3f  %s%s\n",
				d.Name, p.Name, va, vb, r.Ratio, sp, d.Bound, r.Verdict, hold)
		}
	}
	out := filepath.Join(outDir, "agree.json")
	if err := writeJSON(out, struct {
		Machine    machine  `json:"machine"`
		Files      []string `json:"files"`
		Rows       []row    `json:"rows"`
		Unresolved int      `json:"unresolved"`
		Claim      *string  `json:"claim"`
	}{a.Machine, files, rows, unresolved, nil}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d pairings, %d UNRESOLVED; written to %s\n", len(rows), unresolved, out)
	if unresolved > 0 {
		return 1
	}
	return 0
}

// quartiles are Python's statistics.quantiles(values, n=4) (exclusive
// method), which is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		return data[0], data[0], data[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func spreadSets(files []string, stdout, stderr io.Writer) int {
	if len(files) < 4 {
		fmt.Fprintln(stderr, "bench: -spread needs at least 4 result sets")
		return 2
	}
	sets, err := readSets(files)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	over := 0
	fmt.Fprintf(stdout, "%-18s %-15s %14s %9s %7s  %s\n", "metric", "workload", "median", "iqr/med", "bound", "verdict")
	for _, d := range endToEnd {
		for _, p := range workloads {
			var vals []float64
			for _, s := range sets {
				if v, ok := s.value(p.Name, d.Name); ok {
					vals = append(vals, v)
				}
			}
			if len(vals) < 4 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			sp := ratio(q3-q1, q2)
			verdict := "ok"
			switch {
			case d.Name == "setup_s":
				verdict = "(not gated)"
			case sp > d.Bound:
				verdict = "OVER BOUND"
				over++
			case sp > d.Bound/3:
				verdict = "over a third"
			}
			fmt.Fprintf(stdout, "%-18s %-15s %14.6g %9.4f %7.3f  %s\n", d.Name, p.Name, q2, sp, d.Bound, verdict)
		}
	}
	if over > 0 {
		return 1
	}
	return 0
}
