package shortest

import (
	"math"

	"repro/internal/pqueue"
	"repro/internal/roadnet"
)

// Dijkstra is a reusable single-source shortest-path engine. Distance and
// parent arrays are version-stamped so consecutive queries cost O(settled)
// rather than O(V) to reset. Not safe for concurrent use.
type Dijkstra struct {
	g       *roadnet.Graph
	dist    []float64
	parent  []roadnet.VertexID
	version []uint32
	cur     uint32
	heap    *pqueue.Heap
	// Settled counts vertices settled by the most recent query; exposed for
	// complexity experiments.
	Settled int
}

// NewDijkstra returns an engine bound to g.
func NewDijkstra(g *roadnet.Graph) *Dijkstra {
	n := g.NumVertices()
	return &Dijkstra{
		g:       g,
		dist:    make([]float64, n),
		parent:  make([]roadnet.VertexID, n),
		version: make([]uint32, n),
		heap:    pqueue.New(n),
	}
}

func (d *Dijkstra) reset() {
	d.cur++
	if d.cur == 0 { // version counter wrapped: hard reset
		for i := range d.version {
			d.version[i] = 0
		}
		d.cur = 1
	}
	d.heap.Reset()
	d.Settled = 0
}

func (d *Dijkstra) seen(v roadnet.VertexID) bool { return d.version[v] == d.cur }

func (d *Dijkstra) relax(v roadnet.VertexID, dv float64, from roadnet.VertexID) {
	if !d.seen(v) || dv < d.dist[v] {
		d.version[v] = d.cur
		d.dist[v] = dv
		d.parent[v] = from
		d.heap.Push(v, dv)
	}
}

// Dist returns the shortest travel time from s to t, stopping as soon as t
// is settled.
func (d *Dijkstra) Dist(s, t roadnet.VertexID) float64 {
	d.runUntil(s, t, math.Inf(1))
	if !d.seen(t) {
		return Inf
	}
	return d.dist[t]
}

// RunAll computes shortest distances from s to every vertex; read them with
// DistTo / ParentOf until the next query.
func (d *Dijkstra) RunAll(s roadnet.VertexID) {
	d.runUntil(s, -1, math.Inf(1))
}

// RunWithin computes distances from s to all vertices within the given
// radius (seconds). Vertices beyond the radius are left unsettled.
func (d *Dijkstra) RunWithin(s roadnet.VertexID, radius float64) {
	d.runUntil(s, -1, radius)
}

func (d *Dijkstra) runUntil(s, t roadnet.VertexID, radius float64) {
	d.reset()
	d.relax(s, 0, -1)
	for d.heap.Len() > 0 {
		v, dv := d.heap.Pop()
		if dv > radius {
			return
		}
		d.Settled++
		if v == t {
			return
		}
		to, cost := d.g.Arcs(v)
		for i, u := range to {
			d.relax(u, dv+cost[i], v)
		}
	}
}

// DistTo returns the distance computed by the last RunAll/RunWithin/Dist
// call, or +Inf if v was not settled/reached.
func (d *Dijkstra) DistTo(v roadnet.VertexID) float64 {
	if !d.seen(v) {
		return Inf
	}
	return d.dist[v]
}

// Reached reports whether v was reached by the last run.
func (d *Dijkstra) Reached(v roadnet.VertexID) bool { return d.seen(v) }

// extractPath reads the s→t path off the parent pointers of the last
// search. It counts the hops first so the path costs one allocation.
func (d *Dijkstra) extractPath(s, t roadnet.VertexID) []roadnet.VertexID {
	n := 1
	for v := t; v != s; v = d.parent[v] {
		n++
	}
	path := make([]roadnet.VertexID, n)
	for v, i := t, n-1; i >= 0; v, i = d.parent[v], i-1 {
		path[i] = v
	}
	return path
}

// BiDijkstra is the fallback oracle tier and the simulator's leg-path
// engine. Dist is a bidirectional Dijkstra search, roughly half the search
// space of plain Dijkstra on road networks. Path is a goal-directed A*
// search whose potential is the landmark (triangle-inequality) lower bound
// max_L |d(L,v) − d(L,t)| over the graph's landmark rows
// (roadnet.Graph.Landmarks). The graph builds them for its first reader,
// so an engine that only answers Dist never asks for them, and an engine
// bound to a traffic snapshot bounds with that snapshot's own rows.
// The potential is consistent, so Path settles each vertex once and
// returns a shortest path — the same one the bidirectional search finds
// wherever shortest paths are unique.
type BiDijkstra struct {
	fwd, bwd *Dijkstra
	// Settled counts vertices settled by the most recent query (by both
	// searches of a Path that searched again).
	Settled int
}

// NewBiDijkstra returns an engine bound to g. The graph is undirected so
// both directions search the same adjacency.
func NewBiDijkstra(g *roadnet.Graph) *BiDijkstra {
	return &BiDijkstra{fwd: NewDijkstra(g), bwd: NewDijkstra(g)}
}

// Dist returns the shortest travel time from s to t.
func (b *BiDijkstra) Dist(s, t roadnet.VertexID) float64 {
	d, _ := b.search(s, t)
	return d
}

// Path returns a shortest s→t vertex path, or nil if t is unreachable.
// within bounds dis(s, t) from above (Inf: no bound) and the search pushes
// no key above it. If within covers every key the unbounded search pops,
// the search pops exactly those and returns the same path (DESIGN.md §5.1);
// if it ends short of t, Path searches again without the bound.
func (b *BiDijkstra) Path(s, t roadnet.VertexID, within float64) []roadnet.VertexID {
	lm := b.fwd.g.Landmarks()
	ls, lt := &lm[s], &lm[t]
	b.Settled = 0
	// A landmark that reaches exactly one endpoint proves t unreachable.
	// One that reaches neither reaches no vertex of this search either:
	// mask 0 drops its NaN. The rest keep all bits but the sign.
	var mask [len(lt)]uint64
	for l := range lt {
		if (ls[l] == Inf) != (lt[l] == Inf) {
			return nil
		}
		if lt[l] < Inf {
			mask[l] = math.MaxInt64
		}
	}
	p := b.astar(s, t, within, lm, &mask)
	b.Settled = b.fwd.Settled
	if p == nil && within < Inf {
		p = b.astar(s, t, Inf, lm, &mask)
		b.Settled += b.fwd.Settled
	}
	return p
}

// LegSlack is LegBound's rounding slack, derived in DESIGN.md §5.1 for any
// graph an int32 VertexID indexes. Not a tunable: wider only prunes less.
const LegSlack = 0x1p-16

// LegBound bounds dis(·, t) for a leg from time now planned to reach t at
// arr: arr − now, widened by LegSlack times what was rounded on the way —
// both clocks and t's landmark distances, which scale the potential's.
func LegBound(g *roadnet.Graph, t roadnet.VertexID, now, arr float64) float64 {
	r := 0.0
	for _, x := range &g.Landmarks()[t] {
		if x < Inf {
			r = max(r, x)
		}
	}
	return arr - now + LegSlack*(math.Abs(now)+math.Abs(arr)+r)
}

// astar is one A* search from s to t with potential max_L |d(L,u) − d(L,t)|
// over the landmarks mask keeps, pushing no key above within.
func (b *BiDijkstra) astar(s, t roadnet.VertexID, within float64, lm [][8]float64, mask *[8]uint64) []roadnet.VertexID {
	d := b.fwd
	lt := &lm[t]
	d.reset()
	d.relax(s, 0, -1)
	for d.heap.Len() > 0 {
		v, _ := d.heap.Pop()
		d.Settled++
		if v == t {
			return d.extractPath(s, t)
		}
		dv := d.dist[v]
		to, cost := d.g.Arcs(v)
		for i, u := range to {
			du := dv + cost[i]
			// A settled vertex is seen and off the heap; it stays settled
			// even if rounding in the potential finds it an ulp closer.
			if d.seen(u) && (du >= d.dist[u] || !d.heap.Contains(u)) {
				continue
			}
			// h(u) without a branch: non-negative floats order as their
			// bits do, so the masked differences meet in an integer max.
			x := &lm[u]
			var hb uint64
			for l := range x {
				hb = max(hb, math.Float64bits(x[l]-lt[l])&mask[l])
			}
			h := math.Float64frombits(hb)
			// A pruned vertex stays unseen: a shorter offer may push it.
			key := du + h
			if key > within {
				continue
			}
			d.version[u] = d.cur
			d.dist[u] = du
			d.parent[u] = v
			d.heap.Push(u, key)
		}
	}
	return nil
}

func (b *BiDijkstra) search(s, t roadnet.VertexID) (float64, roadnet.VertexID) {
	if s == t {
		// Prime the engines so extractPath works for the trivial case.
		b.fwd.reset()
		b.fwd.relax(s, 0, -1)
		b.bwd.reset()
		b.bwd.relax(t, 0, -1)
		return 0, s
	}
	f, w := b.fwd, b.bwd
	f.reset()
	w.reset()
	f.relax(s, 0, -1)
	w.relax(t, 0, -1)
	best := math.Inf(1)
	meet := roadnet.VertexID(-1)
	b.Settled = 0
	expand := func(d, other *Dijkstra) bool {
		if d.heap.Len() == 0 {
			return false
		}
		v, dv := d.heap.Pop()
		b.Settled++
		if other.seen(v) {
			if total := dv + other.dist[v]; total < best {
				best = total
				meet = v
			}
		}
		to, cost := d.g.Arcs(v)
		for i, u := range to {
			du := dv + cost[i]
			d.relax(u, du, v)
			if other.seen(u) {
				if total := du + other.dist[u]; total < best {
					best = total
					meet = u
				}
			}
		}
		return true
	}
	for {
		fTop := math.Inf(1)
		if f.heap.Len() > 0 {
			_, fTop = f.heap.Min()
		}
		wTop := math.Inf(1)
		if w.heap.Len() > 0 {
			_, wTop = w.heap.Min()
		}
		if fTop+wTop >= best {
			break
		}
		if fTop <= wTop {
			if !expand(f, w) {
				break
			}
		} else {
			if !expand(w, f) {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		return Inf, -1
	}
	return best, meet
}
