package shortest

import "repro/internal/roadnet"

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
//	CH           — ~6-15µs queries after a witness-limited contraction pass
//	               (near-linear on road networks); slightly sparser than
//	               CCH but every weight change costs a full rebuild.
//	bidirectional
//	Dijkstra     — zero preprocessing, per-query cost grows with the search
//	               space; the only choice at DIMACS scale when preprocessing
//	               time is not budgeted.
//
// The paper's experiments assume a preprocessed hub-label oracle ([9]), but
// its datasets reach 807k vertices — far beyond what hub labeling can
// preprocess in an interactive run. Auto picks the strongest tier whose
// preprocessing fits a vertex-count budget, so the same code path serves a
// 2k-vertex synthetic city and a million-vertex DIMACS import. See
// DESIGN.md §8.3 for the tier-threshold rationale and the benchmark that
// backs it (BenchmarkOracleTiers).

// AutoKind names the oracle tier Auto selected.
type AutoKind string

// The tiers Auto chooses between, strongest first.
const (
	// AutoHub is the hub-labeling oracle (BuildHubLabels).
	AutoHub AutoKind = "hub"
	// AutoCCH is the customizable contraction hierarchy (BuildCCH): label
	// point queries as priced above against classic CH's flat ~14µs, and
	// a weight epoch recustomizes the fixed skeleton in milliseconds
	// instead of contracting from scratch (DESIGN.md §12, §12.4).
	AutoCCH AutoKind = "cch"
	// AutoCH is the classic witness-search contraction hierarchy
	// (BuildCH): a slightly sparser hierarchy than CCH, but every weight
	// change costs a full rebuild.
	AutoCH AutoKind = "ch"
	// AutoBiDijkstra is plain bidirectional Dijkstra (no preprocessing).
	AutoBiDijkstra AutoKind = "bidijkstra"
)

// AutoBudget bounds the preprocessing Auto may spend, expressed as the
// largest vertex count each preprocessed tier is allowed at. Vertex count
// is the right proxy here: on road networks (near-constant average degree)
// both hub-label and CH construction costs are functions of |V|, and a
// count threshold keeps the choice deterministic and instantly explainable,
// unlike a wall-clock budget.
type AutoBudget struct {
	// MaxHubVertices is the largest graph that gets hub labels.
	MaxHubVertices int
	// MaxCCHVertices is the largest graph that gets a customizable
	// contraction hierarchy. The default budget makes CCH the mid tier:
	// repeated endpoints make its queries cheaper than classic CH's, and a
	// traffic epoch recustomizes in milliseconds instead of rebuilding
	// (cch.go).
	MaxCCHVertices int
	// MaxCHVertices is the largest graph that gets a classic contraction
	// hierarchy; beyond it Auto falls back to bidirectional Dijkstra.
	// It only selects CH when MaxCCHVertices < n ≤ MaxCHVertices, so the
	// default budget (equal thresholds) never picks it — set
	// MaxCCHVertices lower to prefer the sparser witness-search hierarchy
	// on static workloads.
	MaxCHVertices int
}

// DefaultAutoBudget returns the thresholds used by the CLIs: hub labels up
// to 3k vertices (about 2 s of preprocessing: 1.8 s at 3.0k on a 2-vCPU
// Xeon, 3.5 s at 3.6k, DESIGN.md §8.3), CCH up to 400k (tens of seconds
// to contract, milliseconds per traffic epoch afterwards), bidirectional
// Dijkstra beyond. Both are sized for interactive use; raise them for
// offline preprocessing runs.
func DefaultAutoBudget() AutoBudget {
	return AutoBudget{MaxHubVertices: 3_000, MaxCCHVertices: 400_000, MaxCHVertices: 400_000}
}

// Choose returns the tier Auto would pick for an n-vertex graph, without
// building anything.
func (b AutoBudget) Choose(n int) AutoKind {
	switch {
	case n <= b.MaxHubVertices:
		return AutoHub
	case n <= b.MaxCCHVertices:
		return AutoCCH
	case n <= b.MaxCHVertices:
		return AutoCH
	default:
		return AutoBiDijkstra
	}
}

// Auto builds the strongest distance oracle whose preprocessing fits the
// budget and reports which tier it chose. All tiers are exact: they return
// identical distances (see TestAutoMatchesDijkstra), differing only in
// preprocessing and per-query cost.
//
// Concurrency: the hub tier is immutable and safe for concurrent readers;
// the CH and bidirectional-Dijkstra tiers reuse per-instance search state
// and must be wrapped in Locked (or given one instance per goroutine) when
// shared, as Versioned does for its built tier.
func Auto(g *roadnet.Graph, b AutoBudget) (Oracle, AutoKind) {
	kind := b.Choose(g.NumVertices())
	switch kind {
	case AutoHub:
		return BuildHubLabels(g), kind
	case AutoCCH:
		return BuildCCH(g), kind
	case AutoCH:
		return BuildCH(g), kind
	default:
		return NewBiDijkstra(g), kind
	}
}
