// Command netgen generates, inspects and persists synthetic city road
// networks so experiment inputs can be replayed byte-for-byte.
//
// Usage:
//
//	netgen -rows 80 -cols 80 -o city.net           # generate and save
//	netgen -describe city.net                      # print statistics
//	netgen -preset nyc -scale 0.05 -o nyc.net      # preset network
//	netgen -preset chengdu -scale 0.05 -o c.net -workload c.load
//	                                               # network + request stream
//	netgen -rows 40 -cols 40 -dimacs city          # DIMACS export
//	                                               # (city.gr + city.co, see FORMATS.md §3)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

func main() {
	var (
		rows     = flag.Int("rows", 80, "grid rows")
		cols     = flag.Int("cols", 80, "grid columns")
		spacing  = flag.Float64("spacing", 150, "block spacing in meters")
		seed     = flag.Int64("seed", 1, "generator seed")
		preset   = flag.String("preset", "", "use a dataset preset instead: chengdu|nyc")
		scale    = flag.Float64("scale", 0.05, "preset scale factor")
		out      = flag.String("o", "", "write the network to this file")
		loadOut  = flag.String("workload", "", "also write a request/worker stream (presets only)")
		describe = flag.String("describe", "", "read a network file and print statistics")
		dimacs   = flag.String("dimacs", "", "also export the network as DIMACS <prefix>.gr + <prefix>.co")
	)
	flag.Parse()
	if err := run(*rows, *cols, *spacing, *seed, *preset, *scale, *out, *loadOut, *describe, *dimacs); err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(1)
	}
}

func run(rows, cols int, spacing float64, seed int64, preset string, scale float64, out, loadOut, describe, dimacs string) error {
	if describe != "" {
		f, err := os.Open(describe)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := roadnet.Read(f)
		if err != nil {
			return err
		}
		printStats(g)
		// -dimacs also works on described files, so existing .net files can
		// be converted without regeneration.
		return writeDIMACS(dimacs, g)
	}

	var cfg roadnet.GenConfig
	var params workload.Params
	havePreset := false
	switch strings.ToLower(preset) {
	case "":
		cfg = roadnet.DefaultGenConfig()
		cfg.Rows, cfg.Cols, cfg.Spacing, cfg.Seed = rows, cols, spacing, seed
	case "chengdu":
		params = workload.ChengduLike(scale)
		cfg = params.Net
		havePreset = true
	case "nyc":
		params = workload.NYCLike(scale)
		cfg = params.Net
		havePreset = true
	default:
		return fmt.Errorf("unknown preset %q", preset)
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		return err
	}
	printStats(g)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := roadnet.Write(f, g); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if err := writeDIMACS(dimacs, g); err != nil {
		return err
	}
	if loadOut != "" {
		if !havePreset {
			return fmt.Errorf("-workload requires -preset chengdu|nyc")
		}
		oracle := shortest.NewBiDijkstra(g)
		inst, err := workload.BuildOn(params, g, oracle.Dist)
		if err != nil {
			return err
		}
		f, err := os.Create(loadOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := workload.WriteStream(f, inst); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d workers, %d requests)\n", loadOut, len(inst.Workers), len(inst.Requests))
	}
	return nil
}

// writeDIMACS exports g as prefix.gr + prefix.co; a no-op for an empty
// prefix.
func writeDIMACS(prefix string, g *roadnet.Graph) error {
	if prefix == "" {
		return nil
	}
	grF, err := os.Create(prefix + ".gr")
	if err != nil {
		return err
	}
	defer grF.Close()
	coF, err := os.Create(prefix + ".co")
	if err != nil {
		return err
	}
	defer coF.Close()
	if err := roadnet.WriteDIMACS(grF, coF, g); err != nil {
		return err
	}
	fmt.Printf("wrote %s.gr and %s.co\n", prefix, prefix)
	return nil
}

func printStats(g *roadnet.Graph) {
	b := g.Bounds()
	classes := map[geo.RoadClass]int{}
	totalKm := 0.0
	for _, e := range g.Edges() {
		classes[e.Class]++
		totalKm += e.Meters / 1000
	}
	fmt.Printf("vertices: %d\nedges: %d\nextent: %.1f x %.1f km\nroad length: %.1f km\n",
		g.NumVertices(), g.NumEdges(), b.Width()/1000, b.Height()/1000, totalKm)
	for c := geo.RoadClass(0); c < geo.NumRoadClasses; c++ {
		fmt.Printf("  %-12s %6d edges\n", c, classes[c])
	}
	// Preprocessing stats are only affordable for graphs the hub tier
	// accepts; beyond that report which oracle tier auto would choose.
	if kind := shortest.Choose(g.NumVertices()); kind != shortest.AutoHub {
		fmt.Printf("oracle tier (auto): %s — %d vertices exceed the hub-label threshold of %d\n",
			kind, g.NumVertices(), shortest.MaxHubVertices)
		return
	}
	hub := shortest.BuildHubLabels(g)
	fmt.Printf("hub labeling: avg %.1f hubs/vertex, %.1f MB\n",
		hub.AvgLabelSize(), float64(hub.MemoryBytes())/1e6)
}
