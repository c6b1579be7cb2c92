package shortest

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/pqueue"
	"repro/internal/roadnet"
)

// CH is a contraction-hierarchies distance oracle: vertices are contracted
// in importance order, shortcut edges preserve shortest distances among
// the remaining vertices, and queries run a bidirectional upward Dijkstra
// over the hierarchy. It is the classic preprocessing-based road-network
// oracle family the paper's reference [9] belongs to; this repository
// offers it alongside hub labels so the oracle choice can be ablated
// (hub labels: faster queries, heavier preprocessing; CH: lighter
// preprocessing, microsecond queries).
//
// The implementation is distance-only (the simulator reconstructs leg
// paths with bidirectional Dijkstra, which it needs only once per leg).
type CH struct {
	n    int
	rank []int32
	// Upward adjacency: for each vertex, arcs to higher-ranked vertices.
	upStart []int32
	upTo    []roadnet.VertexID
	upW     []float64

	// Query state (reused; not safe for concurrent use).
	fwd, bwd chSearch
	// Shortcuts is the number of shortcut edges added during preprocessing.
	Shortcuts int
}

type chSearch struct {
	dist    []float64
	version []uint32
	cur     uint32
	heap    *pqueue.Heap
}

// chPrioItem is a lazy priority-queue entry used during preprocessing.
type chPrioItem struct {
	v    roadnet.VertexID
	prio float64
}

type chPrioQueue []chPrioItem

func (q chPrioQueue) Len() int { return len(q) }

// Less tie-breaks equal priorities on vertex ID so vertices with the same
// edge difference contract in a canonical order — part of BuildCH's
// determinism contract (two builds of the same graph must produce
// byte-identical hierarchies); cchPrio.less is the same order for
// BuildCCHSkeleton.
func (q chPrioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].v < q[j].v
}
func (q chPrioQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *chPrioQueue) Push(x interface{}) { *q = append(*q, x.(chPrioItem)) }
func (q *chPrioQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// chArc is a working-graph arc during contraction.
type chArc struct {
	to roadnet.VertexID
	w  float64
}

// sortedArcs copies v's working-graph arcs into buf sorted by target
// vertex. Map iteration order is randomized per run, so every loop whose
// side effects depend on visit order (upward-arc layout, witness-search
// relaxations, shortcut insertion) must go through this instead of
// ranging the map directly — that is what makes BuildCH deterministic.
func sortedArcs(m map[roadnet.VertexID]float64, buf []chArc) []chArc {
	buf = buf[:0]
	for to, w := range m {
		buf = append(buf, chArc{to: to, w: w})
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].to < buf[j].to })
	return buf
}

// BuildCH preprocesses g into a contraction hierarchy. Deterministic:
// adjacency is always visited in sorted vertex order and equal contraction
// priorities tie-break on vertex ID, so two builds of the same graph
// produce byte-identical rank/upStart/upTo/upW arrays (pinned by
// TestBuildCHDeterministic) — which is what makes replay and snapshot
// restores independent of when the hierarchy was (re)built.
func BuildCH(g *roadnet.Graph) *CH {
	n := g.NumVertices()
	// Working graph: adjacency among not-yet-contracted vertices,
	// including shortcuts. Parallel arcs are collapsed to the minimum.
	adj := make([]map[roadnet.VertexID]float64, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[roadnet.VertexID]float64, g.Degree(roadnet.VertexID(v))+2)
	}
	for _, e := range g.Edges() {
		// e.Cost, not Class.TravelTime(Meters): under a traffic overlay the
		// two differ and the hierarchy must preserve the overlay's weights.
		addMinArc(adj, e.U, e.V, e.Cost)
		addMinArc(adj, e.V, e.U, e.Cost)
	}

	ch := &CH{n: n, rank: make([]int32, n)}
	contracted := make([]bool, n)
	neighborsContracted := make([]int32, n)

	// Upward edges are accumulated per vertex as it is contracted: all of
	// its current working-graph arcs point to later-contracted (higher
	// rank) vertices by construction.
	upAdj := make([][]chArc, n)

	wit := newWitnessSearch(n)

	simulate := func(v roadnet.VertexID) (shortcuts int) {
		return ch.contract(adj, wit, v, contracted, nil)
	}

	arcBuf := make([]chArc, 0, 16)
	pq := make(chPrioQueue, 0, n)
	for v := 0; v < n; v++ {
		s := simulate(roadnet.VertexID(v))
		prio := float64(s - len(adj[v])) // edge difference
		pq = append(pq, chPrioItem{v: roadnet.VertexID(v), prio: prio})
	}
	heap.Init(&pq)

	nextRank := int32(0)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(chPrioItem)
		v := it.v
		if contracted[v] {
			continue
		}
		// Lazy update: recompute the priority; if it is no longer the
		// minimum, requeue.
		s := simulate(v)
		prio := float64(s-len(adj[v])) + 2*float64(neighborsContracted[v])
		if pq.Len() > 0 && prio > pq[0].prio+1e-9 {
			heap.Push(&pq, chPrioItem{v: v, prio: prio})
			continue
		}
		// Contract v for real: record its upward arcs, add shortcuts.
		// (Shortcuts never touch adj[v] itself, so one sorted snapshot
		// serves both the upward-arc recording and the neighbor cleanup.)
		ch.rank[v] = nextRank
		nextRank++
		arcs := sortedArcs(adj[v], arcBuf)
		upAdj[v] = append(upAdj[v], arcs...)
		added := make([][3]float64, 0, 8)
		ch.contract(adj, wit, v, contracted, &added)
		ch.Shortcuts += len(added)
		contracted[v] = true
		for _, a := range arcs {
			delete(adj[a.to], v)
			neighborsContracted[a.to]++
		}
		arcBuf = arcs
		adj[v] = nil
	}

	// Freeze the upward adjacency into CSR.
	total := 0
	for _, l := range upAdj {
		total += len(l)
	}
	ch.upStart = make([]int32, n+1)
	ch.upTo = make([]roadnet.VertexID, total)
	ch.upW = make([]float64, total)
	pos := int32(0)
	for v := 0; v < n; v++ {
		ch.upStart[v] = pos
		for _, a := range upAdj[v] {
			ch.upTo[pos] = a.to
			ch.upW[pos] = a.w
			pos++
		}
	}
	ch.upStart[n] = pos

	ch.fwd = newCHSearch(n)
	ch.bwd = newCHSearch(n)
	return ch
}

func addMinArc(adj []map[roadnet.VertexID]float64, u, v roadnet.VertexID, w float64) {
	if old, ok := adj[u][v]; !ok || w < old {
		adj[u][v] = w
	}
}

// contract either simulates (added == nil: returns the number of
// shortcuts contraction of v would add) or performs (added != nil: the
// shortcuts are inserted into adj and appended to *added) the contraction
// of v.
func (ch *CH) contract(adj []map[roadnet.VertexID]float64, wit *witnessSearch,
	v roadnet.VertexID, contracted []bool, added *[][3]float64) int {
	neighbors := sortedArcs(adj[v], make([]chArc, 0, len(adj[v])))
	maxOut := 0.0
	for i := 0; i < len(neighbors); {
		a := neighbors[i]
		if contracted[a.to] {
			neighbors = append(neighbors[:i], neighbors[i+1:]...)
			continue
		}
		if a.w > maxOut {
			maxOut = a.w
		}
		i++
	}
	count := 0
	for i, u := range neighbors {
		// Witness search from u avoiding v, bounded by the largest
		// possible via-v distance.
		limit := u.w + maxOut
		wit.run(adj, contracted, u.to, v, limit)
		for j, x := range neighbors {
			if i == j {
				continue
			}
			viaV := u.w + x.w
			if wd := wit.distTo(x.to); wd <= viaV+1e-12 {
				continue // witness path exists; no shortcut needed
			}
			if cur, ok := adj[u.to][x.to]; ok && cur <= viaV {
				continue // existing (shortcut) edge already covers it
			}
			count++
			if added != nil {
				addMinArc(adj, u.to, x.to, viaV)
				addMinArc(adj, x.to, u.to, viaV)
				*added = append(*added, [3]float64{float64(u.to), float64(x.to), viaV})
			}
		}
	}
	return count
}

// witnessSearch is a bounded Dijkstra over the working graph that avoids
// one vertex; hop- and node-limited for preprocessing speed (a missed
// witness only adds a redundant shortcut, never breaks correctness).
type witnessSearch struct {
	dist    []float64
	version []uint32
	cur     uint32
	heap    *pqueue.Heap
	arcBuf  []chArc // scratch for sorted adjacency iteration
}

func newWitnessSearch(n int) *witnessSearch {
	return &witnessSearch{
		dist:    make([]float64, n),
		version: make([]uint32, n),
		heap:    pqueue.New(n),
	}
}

const witnessNodeLimit = 64

func (ws *witnessSearch) run(adj []map[roadnet.VertexID]float64, contracted []bool,
	source, avoid roadnet.VertexID, limit float64) {
	ws.cur++
	if ws.cur == 0 {
		for i := range ws.version {
			ws.version[i] = 0
		}
		ws.cur = 1
	}
	ws.heap.Reset()
	ws.version[source] = ws.cur
	ws.dist[source] = 0
	ws.heap.Push(source, 0)
	settled := 0
	for ws.heap.Len() > 0 && settled < witnessNodeLimit {
		v, dv := ws.heap.Pop()
		if dv > limit {
			return
		}
		settled++
		// Sorted iteration keeps heap tie-breaking — and therefore which
		// vertices settle within the node limit — canonical across runs.
		ws.arcBuf = sortedArcs(adj[v], ws.arcBuf)
		for _, a := range ws.arcBuf {
			if a.to == avoid || contracted[a.to] {
				continue
			}
			du := dv + a.w
			if ws.version[a.to] != ws.cur || du < ws.dist[a.to] {
				ws.version[a.to] = ws.cur
				ws.dist[a.to] = du
				ws.heap.Push(a.to, du)
			}
		}
	}
}

func (ws *witnessSearch) distTo(v roadnet.VertexID) float64 {
	if ws.version[v] != ws.cur {
		return math.Inf(1)
	}
	return ws.dist[v]
}

func newCHSearch(n int) chSearch {
	return chSearch{
		dist:    make([]float64, n),
		version: make([]uint32, n),
		heap:    pqueue.New(n),
	}
}

func (s *chSearch) reset() {
	s.cur++
	if s.cur == 0 {
		for i := range s.version {
			s.version[i] = 0
		}
		s.cur = 1
	}
	s.heap.Reset()
}

func (s *chSearch) relax(v roadnet.VertexID, d float64) {
	if s.version[v] != s.cur || d < s.dist[v] {
		s.version[v] = s.cur
		s.dist[v] = d
		s.heap.Push(v, d)
	}
}

// Dist implements Oracle: exact shortest travel time via bidirectional
// upward search.
func (ch *CH) Dist(s, t roadnet.VertexID) float64 {
	return upwardDist(&ch.fwd, &ch.bwd, ch.upStart, ch.upTo, ch.upW, s, t)
}

// upwardDist is the bidirectional upward search over a hierarchy stored
// as upward CSR arrays. It is CH's query, and the reference CCH's label
// query is held to bit for bit (TestCCHLabelQueryBitIdentical).
func upwardDist(f, b *chSearch, upStart []int32, upTo []roadnet.VertexID, upW []float64,
	s, t roadnet.VertexID) float64 {
	if s == t {
		return 0
	}
	f.reset()
	b.reset()
	f.relax(s, 0)
	b.relax(t, 0)
	best := math.Inf(1)
	for f.heap.Len() > 0 || b.heap.Len() > 0 {
		// Alternate; prune a side once its minimum exceeds best.
		for _, side := range [2]*chSearch{f, b} {
			if side.heap.Len() == 0 {
				continue
			}
			if _, top := side.heap.Min(); top >= best {
				side.heap.Reset()
				continue
			}
			v, dv := side.heap.Pop()
			other := b
			if side == b {
				other = f
			}
			if other.version[v] == other.cur {
				if total := dv + other.dist[v]; total < best {
					best = total
				}
			}
			for i := upStart[v]; i < upStart[v+1]; i++ {
				side.relax(upTo[i], dv+upW[i])
			}
		}
	}
	if math.IsInf(best, 1) {
		return Inf
	}
	return best
}

// MemoryBytes reports the hierarchy's storage footprint.
func (ch *CH) MemoryBytes() int64 {
	return int64(len(ch.upTo))*4 + int64(len(ch.upW))*8 + int64(len(ch.upStart))*4 + int64(ch.n)*4
}

// AvgUpDegree is the mean number of upward arcs per vertex, the standard
// CH quality measure.
func (ch *CH) AvgUpDegree() float64 {
	return float64(len(ch.upTo)) / float64(ch.n)
}
