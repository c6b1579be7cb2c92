package shortest

import (
	"fmt"

	"repro/internal/roadnet"
)

// This file implements scale-aware oracle selection. The repository's
// point-to-point oracle families trade preprocessing for query speed:
//
//	hub labels   — O(µs) queries, but label construction runs one pruned
//	               Dijkstra per vertex and grows about as n³ on the
//	               synthetic cities (0.9 s at 2.4k vertices, 14 s at 5.9k),
//	               and label memory as n²; affordable up to a few thousand
//	               vertices.
//	CCH          — queries off cached elimination-tree labels (~0.5µs
//	               warm, ~20µs cold on the 5.9k-vertex city, each label one
//	               walk over the arcs perfect customization kept) over a
//	               metric-independent skeleton; a traffic epoch re-derives
//	               the weights in milliseconds (cch.go), so it is the
//	               preferred mid tier under live weights.
//	bidirectional
//	Dijkstra     — zero preprocessing, per-query cost grows with the search
//	               space; the only choice at DIMACS scale when preprocessing
//	               time is not budgeted.
//
// The paper's experiments assume a preprocessed hub-label oracle ([9]), but
// its datasets reach 807k vertices — far beyond what hub labeling can
// preprocess in an interactive run. Choose picks the strongest tier whose
// preprocessing fits a vertex-count threshold, so the same code path
// serves a 2k-vertex synthetic city and a million-vertex DIMACS import.
// The tier is chosen once, when the oracle is first built, and kept for
// the life of the process: traffic epochs re-derive the same tier
// (Versioned). See DESIGN.md §8.3 for the threshold rationale and the
// benchmark that backs it (BenchmarkOracleTiers).

// AutoKind names an oracle tier.
type AutoKind string

// The tiers Choose picks between, strongest first.
const (
	// AutoHub is the hub-labeling oracle (BuildHubLabels).
	AutoHub AutoKind = "hub"
	// AutoCCH is the customizable contraction hierarchy (BuildCCH): label
	// point queries as priced above, and a weight epoch recustomizes the
	// fixed skeleton in milliseconds instead of contracting from scratch
	// (DESIGN.md §12, §12.4).
	AutoCCH AutoKind = "cch"
	// AutoBiDijkstra is plain bidirectional Dijkstra (no preprocessing).
	AutoBiDijkstra AutoKind = "bidijkstra"
)

// The vertex counts up to which Choose grants each preprocessed tier.
// Vertex count is the right proxy here: on road networks (near-constant
// average degree) preprocessing cost is a function of |V|, and a count
// threshold keeps the choice deterministic and instantly explainable,
// unlike a wall-clock budget. Hub labels get up to 3k vertices (about 2 s
// of preprocessing: 1.8 s at 3.0k on a 2-vCPU Xeon, 3.5 s at 3.6k,
// DESIGN.md §8.3), CCH up to 400k (tens of seconds to contract,
// milliseconds per traffic epoch afterwards), bidirectional Dijkstra
// beyond.
const (
	MaxHubVertices = 3_000
	MaxCCHVertices = 400_000
)

// Choose returns the tier "auto" resolves to for an n-vertex graph,
// without building anything.
func Choose(n int) AutoKind {
	switch {
	case n <= MaxHubVertices:
		return AutoHub
	case n <= MaxCCHVertices:
		return AutoCCH
	default:
		return AutoBiDijkstra
	}
}

// Build preprocesses g into the named tier. All tiers are exact: they
// return identical distances (see TestAutoMatchesDijkstra), differing only
// in preprocessing and per-query cost. It panics on a kind that names no
// tier; the commands validate -oracle before they get here.
//
// Concurrency: the hub tier is immutable and safe for concurrent readers;
// the CCH and bidirectional-Dijkstra tiers reuse per-instance query state
// and must be wrapped in Locked (or given one instance per goroutine) when
// shared, as Versioned does.
func Build(kind AutoKind, g *roadnet.Graph) Oracle {
	switch kind {
	case AutoHub:
		return BuildHubLabels(g)
	case AutoCCH:
		return BuildCCH(g)
	case AutoBiDijkstra:
		return NewBiDijkstra(g)
	}
	panic(fmt.Sprintf("shortest: unknown oracle kind %q", kind))
}
