// Command urpsm-sim runs one shared-mobility simulation and prints its
// metrics — the quickest way to watch the algorithms against each other on
// a single configuration.
//
// It runs either a synthetic preset or an imported network + workload pair
// (files produced by cmd/netgen or cmd/urpsm-import):
//
//	urpsm-sim -dataset chengdu -scale 0.05 -algo pruneGreedyDP
//	urpsm-sim -dataset nyc -scale 0.02 -algo all -deadline 15 -workers 200
//	urpsm-sim -net city.net -load city.load -oracle auto -algo pruneGreedyDP
//	urpsm-sim -dataset chengdu -traffic rush.traffic -algo pruneGreedyDP
//
// -oracle picks the distance oracle (hub|cch|bidijkstra|auto); "auto"
// selects the strongest tier whose preprocessing fits the graph size,
// which is the right default for imported real road networks (see
// DESIGN.md §8.3). -traffic replays a scheduled congestion trace
// (FORMATS.md §6) against the event clock: edge weights change
// mid-simulation, the oracle re-derives its tier per epoch (cch
// customizes in milliseconds, hub rebuilds its labels) and routes are
// repaired (DESIGN.md §11). -trace FILE attaches the planner flight recorder and
// writes the retained per-request plan events as JSON after the run
// (FORMATS.md §9); decisions are bit-identical with or without it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/expt"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "chengdu", "dataset preset: chengdu|nyc (presets only)")
		scale    = flag.Float64("scale", 0.05, "workload scale factor in (0,1] (presets only)")
		algo     = flag.String("algo", "pruneGreedyDP", "algorithm name or 'all'")
		workers  = flag.Int("workers", 0, "override number of workers (0 = preset; presets only)")
		requests = flag.Int("requests", 0, "override number of requests (0 = preset; presets only)")
		deadline = flag.Float64("deadline", 0, "override deadline in minutes (0 = preset; presets only)")
		penalty  = flag.Float64("penalty", 0, "override penalty factor (0 = preset; presets only)")
		capacity = flag.Float64("capacity", 0, "override mean worker capacity (0 = preset; presets only)")
		gridKm   = flag.Float64("grid", 2, "grid cell size g in km")
		seed     = flag.Int64("seed", 0, "override workload seed (0 = preset; presets only)")
		repeat   = flag.Int("repeat", 1, "repetitions to average (presets only)")
		netFile  = flag.String("net", "", "run on this road-network file instead of a preset (urpsm-roadnet format)")
		loadFile = flag.String("load", "", "workload stream for -net (urpsm-workload format)")
		traffic  = flag.String("traffic", "", "replay this congestion trace (urpsm-traffic format) against the event clock")
		oracle   = cliutil.OracleFlag("") // default: hub for presets, auto for -net
		traceOut = cliutil.TraceFlag()
	)
	flag.Parse()
	err := cliutil.CheckOracle(*oracle)
	switch {
	case err != nil:
	case *netFile != "" || *loadFile != "":
		// Imported workloads are fully materialized: the preset knobs have
		// nothing to act on, so silently ignoring them would mislead.
		presetOnly := map[string]bool{
			"dataset": true, "scale": true, "workers": true, "requests": true,
			"deadline": true, "penalty": true, "capacity": true, "seed": true,
			"repeat": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if presetOnly[f.Name] && err == nil {
				err = fmt.Errorf("-%s applies to presets only; it cannot modify the -net/-load files "+
					"(re-import with different cmd/urpsm-import flags instead)", f.Name)
			}
		})
		if err == nil {
			err = runFiles(*netFile, *loadFile, *traffic, *algo, *oracle, *traceOut, *gridKm)
		}
	default:
		err = run(*dataset, *algo, *oracle, *traffic, *traceOut, *scale, *workers, *requests,
			*deadline, *penalty, *capacity, *gridKm, *seed, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-sim:", err)
		os.Exit(1)
	}
}

// algoList expands "all" into the paper's comparison set.
func algoList(algo string) []string {
	if algo == "all" {
		return expt.Algorithms
	}
	return []string{algo}
}

// loadTraffic parses and installs a congestion trace on the runner.
func loadTraffic(runner *expt.Runner, trafficFile string) error {
	if trafficFile == "" {
		return nil
	}
	tf, err := os.Open(trafficFile)
	if err != nil {
		return err
	}
	defer tf.Close()
	p, err := roadnet.ReadTrafficProfile(tf, runner.G)
	if err != nil {
		return err
	}
	runner.Traffic = p
	fmt.Printf("traffic=%s (%d scheduled events)\n", trafficFile, len(p.Events))
	return nil
}

// attachTrace wires a flight recorder onto the runner when -trace is
// set; the returned flush writes the ring after the run(s). With -algo
// all or -repeat > 1 every run shares the ring, so the file retains the
// most recent events across them.
func attachTrace(runner *expt.Runner, file string, requests int) func() error {
	if file == "" {
		return func() error { return nil }
	}
	rec := cliutil.NewRecorder(requests)
	runner.Observer = rec
	return func() error { return cliutil.WriteTrace(file, rec) }
}

// runFiles simulates an imported network + workload pair.
func runFiles(netFile, loadFile, trafficFile, algo, oracle, traceFile string, gridKm float64) error {
	if netFile == "" || loadFile == "" {
		return fmt.Errorf("-net and -load must be given together")
	}
	nf, err := os.Open(netFile)
	if err != nil {
		return err
	}
	defer nf.Close()
	g, err := roadnet.Read(nf)
	if err != nil {
		return err
	}
	lf, err := os.Open(loadFile)
	if err != nil {
		return err
	}
	defer lf.Close()
	inst, err := workload.ReadStream(lf, g)
	if err != nil {
		return err
	}

	runner := expt.NewRunnerOn(g, workload.Params{Name: netFile}, 1)
	runner.CellMeters = gridKm * 1000
	if oracle == "" {
		oracle = "auto" // imported networks may be beyond hub-label scale
	}
	runner.OracleKind = oracle
	desc, err := runner.OracleDescription()
	if err != nil {
		return err
	}
	if err := loadTraffic(runner, trafficFile); err != nil {
		return err
	}
	flushTrace := attachTrace(runner, traceFile, len(inst.Requests))
	fmt.Printf("net=%s |V|=%d |E|=%d requests=%d workers=%d oracle=%s\n",
		netFile, g.NumVertices(), g.NumEdges(), len(inst.Requests), len(inst.Workers), desc)
	for _, a := range algoList(algo) {
		m, err := runner.RunInstance(inst, a)
		if err != nil {
			return err
		}
		fmt.Println(m.String())
	}
	return flushTrace()
}

func run(dataset, algo, oracle, trafficFile, traceFile string, scale float64, workers, requests int,
	deadlineMin, penalty, capacity, gridKm float64, seed int64, repeat int) error {
	var p workload.Params
	switch strings.ToLower(dataset) {
	case "chengdu":
		p = workload.ChengduLike(scale)
	case "nyc":
		p = workload.NYCLike(scale)
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	if workers > 0 {
		p.NumWorkers = workers
	}
	if requests > 0 {
		p.NumRequests = requests
	}
	if deadlineMin > 0 {
		p.DeadlineSec = deadlineMin * 60
	}
	if penalty > 0 {
		p.PenaltyFactor = penalty
	}
	if capacity > 0 {
		p.CapacityMean = capacity
	}
	if seed != 0 {
		p.Seed = seed
	}

	runner, err := expt.NewRunner(p, repeat)
	if err != nil {
		return err
	}
	runner.CellMeters = gridKm * 1000
	if oracle != "" {
		runner.OracleKind = oracle
	}
	desc, err := runner.OracleDescription()
	if err != nil {
		return err
	}
	if err := loadTraffic(runner, trafficFile); err != nil {
		return err
	}
	flushTrace := attachTrace(runner, traceFile, p.NumRequests)
	fmt.Printf("dataset=%s |V|=%d |E|=%d requests=%d workers=%d deadline=%.0fs penalty=%.0fx oracle=%s\n",
		p.Name, runner.G.NumVertices(), runner.G.NumEdges(),
		p.NumRequests, p.NumWorkers, p.DeadlineSec, p.PenaltyFactor, desc)

	for _, a := range algoList(algo) {
		m, err := runner.RunOne(p, a)
		if err != nil {
			return err
		}
		fmt.Println(m.String())
	}
	return flushTrace()
}
