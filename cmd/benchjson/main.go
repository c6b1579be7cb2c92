// Command benchjson converts `go test -bench` output into a JSON
// benchmark-trajectory artifact, so perf PRs can check in before/after
// evidence (BENCH_PR4.json) and CI can diff runs mechanically instead of
// eyeballing ns/op columns.
//
//	go test -run xxx -bench . -benchmem . | benchjson -label after -out BENCH_PR4.json
//
// Each invocation parses one benchmark run from stdin and appends it to
// the trajectory in -out (created when missing, atomically rewritten
// otherwise). Every `BenchmarkX  N  v1 unit1  v2 unit2 ...` line becomes
// {"name": "X", "iterations": N, "metrics": {unit1: v1, ...}}, which
// captures ns/op, B/op, allocs/op and all custom b.ReportMetric units
// (dist-queries, goodput-rps, ...) uniformly.
//
// With -gate, the run on stdin is instead compared against the newest
// run in -baseline and the exit status reports whether any shared
// benchmark slowed down beyond -threshold (see gate.go; wired up as
// `make bench-gate`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Metrics maps a unit ("ns/op", "allocs/op", "dist-queries", ...) to its
// per-iteration value.
type Metrics map[string]float64

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	Metrics    Metrics `json:"metrics"`
}

// Run is one `go test -bench` invocation.
type Run struct {
	Label      string      `json:"label"`
	Commit     string      `json:"commit,omitempty"`
	GoVersion  string      `json:"go,omitempty"`
	Benchtime  string      `json:"benchtime,omitempty"`
	UnixTime   int64       `json:"unix_time"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Trajectory is the artifact: an append-only sequence of runs.
type Trajectory struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// trajectorySchema versions the artifact layout.
const trajectorySchema = "urpsm-bench-trajectory/1"

func main() {
	var (
		label     = flag.String("label", "", "label for this run (e.g. pre-PR4, post-PR4; required unless -gate)")
		out       = flag.String("out", "", "trajectory file to append to (default: print the run to stdout)")
		benchtime = flag.String("benchtime", "", "benchtime the run used, recorded verbatim")
		commit    = flag.String("commit", "", "commit id to record (default: git rev-parse --short HEAD)")
		gate      = flag.Bool("gate", false, "gate mode: compare the run on stdin against -baseline instead of recording it")
		baseline  = flag.String("baseline", "", "gate mode: trajectory file whose newest run is the baseline")
		threshold = flag.Float64("threshold", 1.25, "gate mode: fail when candidate ns/op exceeds baseline by this ratio")
	)
	flag.Parse()
	var err error
	if *gate {
		err = runGate(os.Stdin, *baseline, *threshold)
	} else {
		err = run(os.Stdin, *label, *out, *benchtime, *commit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, label, out, benchtime, commit string) error {
	if label == "" {
		return fmt.Errorf("-label is required")
	}
	r, err := parseRun(in)
	if err != nil {
		return err
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	r.Label = label
	r.Benchtime = benchtime
	r.UnixTime = time.Now().Unix()
	if commit == "" {
		commit = gitCommit()
	}
	r.Commit = commit

	if out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	tr, err := loadTrajectory(out)
	if err != nil {
		return err
	}
	tr.Runs = append(tr.Runs, r)
	return writeTrajectory(out, tr)
}

// parseRun scans `go test -bench` output: header lines carry the
// environment, Benchmark lines carry results.
func parseRun(in io.Reader) (Run, error) {
	var r Run
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				r.Benchmarks = append(r.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	r.GoVersion = goVersion()
	return r, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkName/sub-8   100   5285027 ns/op   2450 dist-queries   16602560 B/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: Metrics{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}

func loadTrajectory(path string) (Trajectory, error) {
	tr := Trajectory{Schema: trajectorySchema}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return tr, nil
	}
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return tr, fmt.Errorf("%s is not a benchmark trajectory: %w", path, err)
	}
	if tr.Schema != trajectorySchema {
		return tr, fmt.Errorf("%s has schema %q, want %q", path, tr.Schema, trajectorySchema)
	}
	return tr, nil
}

// writeTrajectory persists atomically (temp + rename) so an interrupted
// run cannot corrupt the artifact.
func writeTrajectory(path string, tr Trajectory) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
