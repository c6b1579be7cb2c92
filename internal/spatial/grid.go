// Package spatial implements the grid indexes the paper's solutions use to
// filter candidate workers: a plain worker grid (used by pruneGreedyDP,
// GreedyDP, kinetic and batch, which "only store the IDs of workers in the
// grid") and the T-Share-style grid with per-cell sorted grid lists (used
// by tshare, whose much larger memory footprint the paper reports in the
// grid-size experiment, Fig. 5).
package spatial

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
)

// ItemID identifies an indexed item (a worker in this repository).
type ItemID = int32

// Grid is a uniform cell index over moving point items. Reads (Within,
// All, Position, ItemsInCell, Len) and writes (Insert, Remove) are guarded
// by an internal RWMutex, so any number of concurrent readers can overlap
// safely while writers serialize. The planner retrieves candidates on
// the caller's goroutine, so the simulator itself never reads the grid
// concurrently — the lock is what makes concurrent harnesses
// (core.TestConcurrentCandidates) safe. Callbacks run under the read lock
// and must not call Insert or Remove.
//
// Each cell stores its items in a slice, so a range query reads
// contiguous (id, position) slots; where maps an item to its slot, and
// removal moves the cell's last slot into the hole. Iteration follows slot
// order, which depends only on the sequence of Insert and Remove calls.
type Grid struct {
	mu    sync.RWMutex
	min   geo.Point
	cell  float64
	cols  int
	rows  int
	items [][]slot          // cell -> the items inside
	where map[ItemID]slotAt // item -> its slot
}

// slot is one indexed item and its stored position.
type slot struct {
	id  ItemID
	pos geo.Point
}

// slotAt locates a slot: items[cell][idx].
type slotAt struct{ cell, idx int32 }

// NewGrid builds a grid over bounds with the given cell size in meters.
func NewGrid(bounds geo.BBox, cellMeters float64) (*Grid, error) {
	if cellMeters <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %v", cellMeters)
	}
	cols := int(bounds.Width()/cellMeters) + 1
	rows := int(bounds.Height()/cellMeters) + 1
	g := &Grid{
		min:   bounds.Min,
		cell:  cellMeters,
		cols:  cols,
		rows:  rows,
		items: make([][]slot, cols*rows),
		where: make(map[ItemID]slotAt),
	}
	return g, nil
}

// CellSize returns the configured cell size in meters.
func (g *Grid) CellSize() float64 { return g.cell }

// NumCells returns the number of grid cells.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// Len returns the number of indexed items.
func (g *Grid) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.where)
}

func (g *Grid) cellOf(p geo.Point) int {
	cx := int((p.X - g.min.X) / g.cell)
	cy := int((p.Y - g.min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// CellIndex returns the index of the cell containing p (out-of-bounds
// points are clamped into the border cells).
func (g *Grid) CellIndex(p geo.Point) int { return g.cellOf(p) }

// ItemsInCell calls fn for every item stored in the given cell; iteration
// stops early if fn returns false.
func (g *Grid) ItemsInCell(cell int, fn func(id ItemID, pos geo.Point) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if cell < 0 || cell >= len(g.items) {
		return
	}
	for _, s := range g.items[cell] {
		if !fn(s.id, s.pos) {
			return
		}
	}
}

// CellCenter returns the center point of the cell with the given index.
func (g *Grid) CellCenter(cell int) geo.Point {
	cx := cell % g.cols
	cy := cell / g.cols
	return geo.Point{
		X: g.min.X + (float64(cx)+0.5)*g.cell,
		Y: g.min.Y + (float64(cy)+0.5)*g.cell,
	}
}

// Insert adds or moves item id to position p.
func (g *Grid) Insert(id ItemID, p geo.Point) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.cellOf(p)
	if at, ok := g.where[id]; ok {
		if int(at.cell) == c {
			g.items[c][at.idx].pos = p
			return
		}
		g.vacate(at)
	}
	g.where[id] = slotAt{cell: int32(c), idx: int32(len(g.items[c]))}
	g.items[c] = append(g.items[c], slot{id: id, pos: p})
}

// vacate empties slot at by moving its cell's last slot into it; the
// caller re-points or deletes the vacated item's where entry.
func (g *Grid) vacate(at slotAt) {
	cell := g.items[at.cell]
	last := len(cell) - 1
	if int(at.idx) != last {
		cell[at.idx] = cell[last]
		g.where[cell[at.idx].id] = at
	}
	g.items[at.cell] = cell[:last]
}

// Remove deletes item id; it is a no-op if absent.
func (g *Grid) Remove(id ItemID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if at, ok := g.where[id]; ok {
		g.vacate(at)
		delete(g.where, id)
	}
}

// Position returns the stored position of item id.
func (g *Grid) Position(id ItemID) (geo.Point, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	at, ok := g.where[id]
	if !ok {
		return geo.Point{}, false
	}
	return g.items[at.cell][at.idx].pos, true
}

// Within calls fn for every item whose stored position lies within
// radiusMeters of p (Euclidean). Iteration stops early if fn returns false.
func (g *Grid) Within(p geo.Point, radiusMeters float64, fn func(id ItemID, pos geo.Point) bool) {
	if radiusMeters < 0 {
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	loX := int((p.X - radiusMeters - g.min.X) / g.cell)
	hiX := int((p.X + radiusMeters - g.min.X) / g.cell)
	loY := int((p.Y - radiusMeters - g.min.Y) / g.cell)
	hiY := int((p.Y + radiusMeters - g.min.Y) / g.cell)
	// Clamp both ends into the grid; out-of-bounds items are stored in the
	// border cells, so out-of-bounds queries must scan those same cells.
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	loX, hiX = clamp(loX, g.cols-1), clamp(hiX, g.cols-1)
	loY, hiY = clamp(loY, g.rows-1), clamp(hiY, g.rows-1)
	r2 := radiusMeters * radiusMeters
	for cy := loY; cy <= hiY; cy++ {
		for cx := loX; cx <= hiX; cx++ {
			for _, s := range g.items[cy*g.cols+cx] {
				if p.DistSq(s.pos) <= r2 {
					if !fn(s.id, s.pos) {
						return
					}
				}
			}
		}
	}
}

// All calls fn for every indexed item, cell by cell. Iteration stops if fn
// returns false.
func (g *Grid) All(fn func(id ItemID, pos geo.Point) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, cell := range g.items {
		for _, s := range cell {
			if !fn(s.id, s.pos) {
				return
			}
		}
	}
}

// MemoryBytes estimates the index's memory footprint: the cell directory
// plus per-item bookkeeping. This is the "memory cost of grid index"
// metric of the grid-size experiment.
func (g *Grid) MemoryBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	// A 24-byte slice header per cell; 24 bytes per allocated slot (4-byte
	// id padded to 8, 16-byte position); and ~16 bytes per item in where
	// (4-byte key, 8-byte slotAt, map bucket overhead).
	total := int64(len(g.items)) * 24
	for _, cell := range g.items {
		total += int64(cap(cell)) * 24
	}
	total += int64(len(g.where)) * 16
	return total
}

// TShareGrid augments a Grid with, for every cell, the full list of cells
// sorted by center-to-center distance — the "spatially ordered grid list"
// of T-Share. Its O(C²) footprint is what makes tshare's index orders of
// magnitude larger than the plain grid, as the paper observes.
type TShareGrid struct {
	*Grid
	sorted [][]int32 // per cell: all cell indices in increasing center distance
}

// NewTShareGrid builds the grid and its per-cell sorted lists.
func NewTShareGrid(bounds geo.BBox, cellMeters float64) (*TShareGrid, error) {
	g, err := NewGrid(bounds, cellMeters)
	if err != nil {
		return nil, err
	}
	nc := g.NumCells()
	t := &TShareGrid{Grid: g, sorted: make([][]int32, nc)}
	centers := make([]geo.Point, nc)
	for c := 0; c < nc; c++ {
		centers[c] = g.CellCenter(c)
	}
	for c := 0; c < nc; c++ {
		lst := make([]int32, nc)
		for i := range lst {
			lst[i] = int32(i)
		}
		pc := centers[c]
		sort.Slice(lst, func(i, j int) bool {
			di := pc.DistSq(centers[lst[i]])
			dj := pc.DistSq(centers[lst[j]])
			if di != dj {
				return di < dj
			}
			return lst[i] < lst[j]
		})
		t.sorted[c] = lst
	}
	return t, nil
}

// CellsByDistance returns all cell indices ordered by center distance from
// the cell containing p. The returned slice is shared; do not modify.
func (t *TShareGrid) CellsByDistance(p geo.Point) []int32 {
	return t.sorted[t.cellOf(p)]
}

// CellRadius returns the half-diagonal of a cell: the maximum distance
// between a point in a cell and the cell's center, used to convert a
// search radius into a safe prefix of the sorted cell list.
func (t *TShareGrid) CellRadius() float64 {
	return t.cell * math.Sqrt2 / 2
}

// MemoryBytes includes the sorted-list footprint.
func (t *TShareGrid) MemoryBytes() int64 {
	total := t.Grid.MemoryBytes()
	for _, l := range t.sorted {
		total += int64(len(l)) * 4
	}
	return total
}
