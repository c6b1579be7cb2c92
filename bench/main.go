// Command bench is the repository's benchmark: four dispatch workloads run
// in-process through the system's public entry points, eight end-to-end
// metrics, and a separately run per-layer trace. See README.md.
//
//	go run ./bench -all                      # every workload, end-to-end metrics
//	go run ./bench -all -trace 1             # every workload, per-layer metrics + span files
//	go run ./bench --workload serve-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the driver's contract).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

const outDir = "bench/out"

// result is everything one run of one workload produced.
type result struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Machine    machine        `json:"machine"`
	Params     params         `json:"params"`
	Correct    bool           `json:"correct"`
	Valid      bool           `json:"valid"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Violations []string       `json:"violations"`
	Invalid    []string       `json:"invalid"`
	Metrics    metricSet      `json:"metrics"`
	Extra      map[string]any `json:"extra"`

	tracer *tracer
}

func (r *result) violate(v ...string) { r.Violations = append(r.Violations, v...) }
func (r *result) invalid(v string)    { r.Invalid = append(r.Invalid, v) }

// runWorkload runs one workload and returns its result; an error means the
// run could not be carried out at all. A run the load generator could not
// keep its schedule in (the box stalled: lag p99 > 50 ms) measured the box,
// not the system, so it is thrown away and done again, once.
func runWorkload(p params, seed int64, seconds float64, traced bool) (*result, error) {
	runtime.GOMAXPROCS(p.procs())
	for attempt := 1; ; attempt++ {
		res, err := runOnce(p, seed, seconds, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		res.Extra["attempts"] = attempt
		if res.Valid || attempt == 2 {
			return res, nil
		}
	}
}

func runOnce(p params, seed int64, seconds float64, traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{
		Workload: p.Name, Seed: seed, Seconds: seconds, Trace: traced, Params: p,
		Machine: machineShape(absPath(walRoot)), Metrics: newMetricSet(defs), Extra: map[string]any{},
		Violations: []string{}, Invalid: []string{},
	}
	var err error
	switch {
	case p.RateRPS == 0:
		err = runPlanOffline(p, seed, seconds, traced, res)
	case traced:
		err = tracedServe(p, seed, seconds, res)
	default:
		var sm *serveMeasure
		if sm, err = runServe(p, seed, seconds, false); err == nil {
			sm.fillEndToEnd(res)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Failed += len(res.Violations)
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	res.Valid = len(res.Invalid) == 0
	return res, nil
}

// tracedServe runs a serve workload twice inside one process, each for half
// the window: untraced for the reference goodput, then with the server's
// flight recorder on and the harness reading its Stats()//metrics at the
// window edges. The difference between the two is the tracing overhead.
func tracedServe(p params, seed int64, seconds float64, res *result) error {
	ref, err := runServe(p, seed, seconds/2, false)
	if err != nil {
		return err
	}
	rt := ref.tally()
	untracedRPS := float64(rt.accepted+rt.rejected) / (seconds / 2)
	sm, err := runServe(p, seed, seconds/2, true)
	if err != nil {
		return err
	}
	return sm.fillPerLayer(res, untracedRPS)
}

func absPath(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

// contractLine is the driver's last-line JSON.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct && r.Valid, max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (r *result) printTable(w io.Writer) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %gs  trace=%v  GOMAXPROCS=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Machine.GOMAXPROCS)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v  valid %v\n", r.Attempted, r.Failed, r.Correct, r.Valid)
	if win, ok := r.Extra["window"]; ok {
		fmt.Fprintf(w, "  window %v\n", win)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, v := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", v)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultSet is what -all writes: one result per workload and no claim — the
// benchmark measures, a later issue claims.
type resultSet struct {
	Machine machine   `json:"machine"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
	Claim   *string   `json:"claim"`
}

// runAll re-executes this binary once per workload, one after another, so
// setup_s and peak_rss_mb belong to one workload.
func runAll(seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	set := resultSet{Seed: seed, Seconds: seconds, Trace: trace == 1}
	code := 0
	for _, p := range workloads {
		file := filepath.Join(outDir, "result-"+p.Name+traceSuffix(trace == 1)+".json")
		cmd := exec.Command(exe, "-workload", p.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", file)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p.Name, err)
			code = 1
		}
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s left no result: %v\n", p.Name, err)
			code = 1
			continue
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", file, err)
			code = 1
			continue
		}
		set.Results = append(set.Results, &r)
		set.Machine = r.Machine
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("set-seed%d%s.json", seed, traceSuffix(trace == 1)))
	}
	if err := writeJSON(out, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	printSet(stdout, set)
	return code
}

// printSet prints metric × workload and ends with the summary object.
func printSet(w io.Writer, set resultSet) {
	defs := endToEnd
	if set.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n%-34s %-6s", "metric", "unit")
	for _, r := range set.Results {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %-6s", d.Name, d.Unit)
		for _, r := range set.Results {
			fmt.Fprintf(w, " %14.6g", r.Metrics[d.Name].Value)
		}
		fmt.Fprintln(w)
	}
	type row struct {
		Workload  string `json:"workload"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Correct   bool   `json:"correct"`
		Valid     bool   `json:"valid"`
	}
	rows := make([]row, len(set.Results))
	for i, r := range set.Results {
		rows[i] = row{r.Workload, r.Attempted, r.Failed, r.Correct, r.Valid}
		fmt.Fprintf(w, "%-34s attempted %d failed %d correct %v valid %v\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Valid)
	}
	b, _ := json.Marshal(struct {
		Seed      int64   `json:"seed"`
		Workloads []row   `json:"workloads"`
		Claim     *string `json:"claim"`
	}{set.Seed, rows, nil})
	fmt.Fprintln(w, string(b))
}

// contract renders BENCHMARK.json from the catalogue and the workload table.
func contract() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, p := range workloads {
		c.Workloads = append(c.Workloads, wl{p.Name, p.Why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
	all := fs.Bool("all", false, "run every workload, one process each, and print the combined table")
	seed := fs.Int64("seed", 1, "workload seed (1 = development, 2 = hold-out)")
	seconds := fs.Float64("seconds", defaultSeconds, "measurement window in seconds (warm-up comes on top)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics + span file")
	out := fs.String("out", "", "write the full result JSON here (default bench/out/result-<workload>.json)")
	printContract := fs.Bool("print-contract", false, "print BENCHMARK.json as generated from the catalogue and exit")
	compare := fs.Bool("compare", false, "compare result sets: -compare A.json B.json [HOLDOUT.json]")
	spread := fs.Bool("spread", false, "interquartile spread per metric x workload over result sets: -spread SET.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printContract:
		stdout.Write(contract())
		return 0
	case *compare:
		return compareSets(fs.Args(), stdout, stderr)
	case *spread:
		return spreadSets(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1 and -seconds is positive")
		return 2
	}
	if *all {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	p, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: -workload must be one of %s (or use -all)\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(p, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if res.Trace {
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			err = res.tracer.write(filepath.Join(outDir, "trace-"+p.Name+".json"))
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: span file:", err)
			return 2
		}
	}
	if *out == "" {
		*out = filepath.Join(outDir, "result-"+p.Name+traceSuffix(res.Trace)+".json")
	}
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res.printTable(stdout)
	fmt.Fprintln(stdout, res.contractLine())
	if !res.Correct || !res.Valid {
		return 1
	}
	return 0
}

func traceSuffix(traced bool) string {
	if traced {
		return "-trace"
	}
	return ""
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, p := range workloads {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
