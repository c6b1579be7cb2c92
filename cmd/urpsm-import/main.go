// Command urpsm-import converts real road-network and trip-record data
// into the repository's native formats: a DIMACS `.gr`/`.co` pair becomes
// a `urpsm-roadnet 1` network file, and an optional trip CSV is
// map-matched onto the network and written as a `urpsm-workload 1` stream.
// The outputs run directly under urpsm-sim / urpsm-bench. See FORMATS.md
// for all three formats and README.md for a walkthrough.
//
// Usage:
//
//	urpsm-import -gr USA-road-d.NY.gr -co USA-road-d.NY.co -net ny.net
//	urpsm-import -gr city.gr -co city.co -max-nodes 50000 -net city.net \
//	    -trips trips.csv -load city.load -import-workers 200
//	urpsm-import -gr city.gr -co city.co -box "104.0,30.6,104.1,30.7" -net sub.net
//
// The printed summary includes which distance-oracle tier shortest.Choose
// picks for the imported graph (see DESIGN.md §8.3), so the cost of a
// later simulation run is visible before it starts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

func main() {
	var (
		grFile   = flag.String("gr", "", "DIMACS graph file (.gr), required")
		coFile   = flag.String("co", "", "DIMACS coordinate file (.co), required")
		netOut   = flag.String("net", "", "write the imported network here (urpsm-roadnet format), required")
		maxNodes = flag.Int("max-nodes", 0, "keep only DIMACS node IDs 1..N (0 = all)")
		box      = flag.String("box", "", "keep only nodes inside \"minLon,minLat,maxLon,maxLat\" (degrees; meters for planar files)")
		class    = flag.String("class", "arterial", "road class for unannotated edges: motorway|arterial|collector|residential")
		scale    = flag.Float64("scale", 0, "arc weight → meters multiplier (0 = 1, or cm for urpsm planar files)")
		keepAll  = flag.Bool("keep-all-components", false, "skip largest-connected-component extraction")

		trips    = flag.String("trips", "", "also map-match this trip CSV onto the network")
		loadOut  = flag.String("load", "", "write the matched workload here (urpsm-workload format; requires -trips)")
		workers  = flag.Int("import-workers", 0, "workers to synthesize for the trip workload (0 = one per 10 trips)")
		deadline = flag.Float64("deadline", 10, "trip deadline in minutes")
		penalty  = flag.Float64("penalty", 10, "penalty factor over trip shortest distance")
		maxMatch = flag.Float64("max-match", 500, "drop trips farther than this many meters from the network")
		maxTrips = flag.Int("max-trips", 0, "stop after this many accepted trips (0 = all)")
		seed     = flag.Int64("seed", 1, "seed for synthesized workers")
	)
	flag.Parse()
	if err := run(*grFile, *coFile, *netOut, *maxNodes, *box, *class, *scale, *keepAll,
		*trips, *loadOut, *workers, *deadline, *penalty, *maxMatch, *maxTrips, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-import:", err)
		os.Exit(1)
	}
}

// parseClass maps a road-class name to its geo constant.
func parseClass(s string) (geo.RoadClass, error) {
	for c := geo.RoadClass(0); c < geo.NumRoadClasses; c++ {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown road class %q", s)
}

// parseBox parses "minLon,minLat,maxLon,maxLat".
func parseBox(s string) (*roadnet.DIMACSBox, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, fmt.Errorf("box needs 4 comma-separated numbers, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad box value %q", p)
		}
		vals[i] = v
	}
	if vals[0] >= vals[2] || vals[1] >= vals[3] {
		return nil, fmt.Errorf("empty box %q", s)
	}
	return &roadnet.DIMACSBox{MinLon: vals[0], MinLat: vals[1], MaxLon: vals[2], MaxLat: vals[3]}, nil
}

func run(grFile, coFile, netOut string, maxNodes int, box, class string, scale float64,
	keepAll bool, trips, loadOut string, workers int, deadlineMin, penalty, maxMatch float64,
	maxTrips int, seed int64) error {
	if grFile == "" || coFile == "" {
		return fmt.Errorf("-gr and -co are required")
	}
	if netOut == "" {
		return fmt.Errorf("-net output file is required")
	}
	if (trips == "") != (loadOut == "") {
		return fmt.Errorf("-trips and -load must be given together")
	}

	opts := roadnet.DefaultDIMACSOptions()
	opts.MaxNodes = maxNodes
	opts.ScaleMeters = scale
	opts.KeepAllComponents = keepAll
	var err error
	if opts.Class, err = parseClass(class); err != nil {
		return err
	}
	if box != "" {
		if opts.Box, err = parseBox(box); err != nil {
			return err
		}
	}

	grF, err := os.Open(grFile)
	if err != nil {
		return err
	}
	defer grF.Close()
	coF, err := os.Open(coFile)
	if err != nil {
		return err
	}
	defer coF.Close()
	g, stats, err := roadnet.LoadDIMACS(grF, coF, opts)
	if err != nil {
		return err
	}

	kind := shortest.Choose(g.NumVertices())
	fmt.Printf("dimacs: %d nodes, %d arcs declared; kept %d nodes, %d edges (%d components)\n",
		stats.NodesDeclared, stats.ArcsDeclared, stats.NodesKept, stats.EdgesKept, stats.Components)
	fmt.Printf("graph: |V|=%d |E|=%d (self-loops %d, filtered arcs %d, clamped to Euclid %d)\n",
		g.NumVertices(), g.NumEdges(), stats.SelfLoops, stats.DroppedArcs, stats.Clamped)
	if stats.Proj.Planar {
		fmt.Println("coordinates: planar (urpsm DIMACS export)")
	} else {
		fmt.Printf("coordinates: geographic, projected around lat %.4f lon %.4f\n",
			stats.Proj.Lat0, stats.Proj.Lon0)
	}
	fmt.Printf("oracle tier (auto): %s\n", kind)

	nf, err := os.Create(netOut)
	if err != nil {
		return err
	}
	defer nf.Close()
	if err := roadnet.Write(nf, g); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", netOut)

	if trips == "" {
		return nil
	}
	oracle := shortest.Build(kind, g)
	// Popular pickup/drop-off spots snap to the same vertex pairs; the
	// cache keeps penalty pricing cheap even on the bidijkstra tier.
	cached := shortest.NewCached(oracle, 1<<16)
	cfg := workload.DefaultTripConfig(stats.Proj)
	cfg.NumWorkers = workers
	cfg.DeadlineSec = deadlineMin * 60
	cfg.PenaltyFactor = penalty
	cfg.MaxMatchMeters = maxMatch
	cfg.MaxTrips = maxTrips
	cfg.Seed = seed

	tf, err := os.Open(trips)
	if err != nil {
		return err
	}
	defer tf.Close()
	inst, tstats, err := workload.ReadTripCSV(tf, g, cached.Dist, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("trips: %d rows → %d requests (parse %d, unmatched %d, same-stop %d, unreachable %d skipped; worst snap %.0fm; penalties via %s oracle)\n",
		tstats.Rows, tstats.Trips, tstats.SkippedParse, tstats.SkippedUnmatched,
		tstats.SkippedSameStop, tstats.SkippedUnreachable, tstats.WorstMatchMeters, kind)

	lf, err := os.Create(loadOut)
	if err != nil {
		return err
	}
	defer lf.Close()
	if err := workload.WriteStream(lf, inst); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d workers, %d requests)\n", loadOut, len(inst.Workers), len(inst.Requests))
	return nil
}
