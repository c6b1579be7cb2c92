package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

func bounds10km() geo.BBox {
	return geo.BBox{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 10000, Y: 10000}}
}

func TestNewGridRejectsBadCell(t *testing.T) {
	if _, err := NewGrid(bounds10km(), 0); err == nil {
		t.Fatal("zero cell accepted")
	}
	if _, err := NewGrid(bounds10km(), -5); err == nil {
		t.Fatal("negative cell accepted")
	}
}

func TestInsertRemovePosition(t *testing.T) {
	g, err := NewGrid(bounds10km(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(7, geo.Point{X: 100, Y: 200})
	if g.Len() != 1 {
		t.Fatalf("len=%d", g.Len())
	}
	p, ok := g.Position(7)
	if !ok || p != (geo.Point{X: 100, Y: 200}) {
		t.Fatalf("pos=%v ok=%v", p, ok)
	}
	// Move within same cell.
	g.Insert(7, geo.Point{X: 150, Y: 250})
	if g.Len() != 1 {
		t.Fatalf("len after same-cell move=%d", g.Len())
	}
	// Move across cells.
	g.Insert(7, geo.Point{X: 5500, Y: 5500})
	if g.Len() != 1 {
		t.Fatalf("len after cross-cell move=%d", g.Len())
	}
	if p, _ = g.Position(7); p != (geo.Point{X: 5500, Y: 5500}) {
		t.Fatalf("pos after move=%v", p)
	}
	g.Remove(7)
	if g.Len() != 0 {
		t.Fatalf("len after remove=%d", g.Len())
	}
	if _, ok := g.Position(7); ok {
		t.Fatal("position after remove")
	}
	g.Remove(7) // no-op
}

func TestWithinMatchesBruteForce(t *testing.T) {
	g, err := NewGrid(bounds10km(), 700)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pts := make(map[ItemID]geo.Point)
	for i := ItemID(0); i < 500; i++ {
		p := geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		pts[i] = p
		g.Insert(i, p)
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.Point{X: rng.Float64() * 12000, Y: rng.Float64()*12000 - 1000}
		r := rng.Float64() * 3000
		var want []ItemID
		for id, p := range pts {
			if q.DistSq(p) <= r*r {
				want = append(want, id)
			}
		}
		var got []ItemID
		g.Within(q, r, func(id ItemID, pos geo.Point) bool {
			got = append(got, id)
			return true
		})
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(want) != len(got) {
			t.Fatalf("trial %d: got %d items want %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

// TestGridMatchesMapModel drives random inserts, moves (within and across
// cells, out of bounds included) and removals against a plain map and
// checks after every step that Len and Position agree, and every few
// steps that Within, All and ItemsInCell report the model's items as sets.
func TestGridMatchesMapModel(t *testing.T) {
	g, err := NewGrid(bounds10km(), 900)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	model := map[ItemID]geo.Point{}
	point := func() geo.Point {
		return geo.Point{X: rng.Float64()*12000 - 1000, Y: rng.Float64()*12000 - 1000}
	}
	type item struct {
		id  ItemID
		pos geo.Point
	}
	sorted := func(items []item) []item {
		sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
		return items
	}
	collect := func(visit func(fn func(ItemID, geo.Point) bool)) []item {
		var got []item
		visit(func(id ItemID, pos geo.Point) bool {
			got = append(got, item{id, pos})
			return true
		})
		return sorted(got)
	}
	want := func(keep func(geo.Point) bool) []item {
		var w []item
		for id, p := range model {
			if keep(p) {
				w = append(w, item{id, p})
			}
		}
		return sorted(w)
	}
	same := func(step int, what string, got, want []item) {
		if len(got) != len(want) {
			t.Fatalf("step %d: %s has %d items, model %d", step, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s item %d is %v, model %v", step, what, i, got[i], want[i])
			}
		}
	}

	for step := 0; step < 20000; step++ {
		id := ItemID(rng.Intn(300))
		switch op := rng.Intn(10); {
		case op < 2:
			g.Remove(id)
			delete(model, id)
		case op < 4:
			if p, ok := model[id]; ok { // a short move, usually within the cell
				p.X += rng.Float64()*200 - 100
				g.Insert(id, p)
				model[id] = p
			}
		default:
			p := point()
			g.Insert(id, p)
			model[id] = p
		}
		if g.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, g.Len(), len(model))
		}
		p, ok := g.Position(id)
		if mp, mok := model[id]; ok != mok || p != mp {
			t.Fatalf("step %d: Position(%d) = %v %v, model %v %v", step, id, p, ok, mp, mok)
		}
		if step%50 != 0 {
			continue
		}
		same(step, "All", collect(g.All), want(func(geo.Point) bool { return true }))
		q, r := point(), rng.Float64()*4000
		same(step, "Within", collect(func(fn func(ItemID, geo.Point) bool) { g.Within(q, r, fn) }),
			want(func(p geo.Point) bool { return q.DistSq(p) <= r*r }))
		c := g.CellIndex(q)
		same(step, "ItemsInCell", collect(func(fn func(ItemID, geo.Point) bool) { g.ItemsInCell(c, fn) }),
			want(func(p geo.Point) bool { return g.CellIndex(p) == c }))
	}
}

func TestWithinEarlyStop(t *testing.T) {
	g, _ := NewGrid(bounds10km(), 1000)
	for i := ItemID(0); i < 50; i++ {
		g.Insert(i, geo.Point{X: 5000, Y: 5000})
	}
	count := 0
	g.Within(geo.Point{X: 5000, Y: 5000}, 100, func(id ItemID, pos geo.Point) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	g, _ := NewGrid(bounds10km(), 1000)
	g.Insert(1, geo.Point{X: 10, Y: 10})
	called := false
	g.Within(geo.Point{X: 10, Y: 10}, -1, func(ItemID, geo.Point) bool {
		called = true
		return true
	})
	if called {
		t.Fatal("negative radius should match nothing")
	}
}

func TestAll(t *testing.T) {
	g, _ := NewGrid(bounds10km(), 1000)
	for i := ItemID(0); i < 20; i++ {
		g.Insert(i, geo.Point{X: float64(i) * 400, Y: float64(i) * 300})
	}
	seen := map[ItemID]bool{}
	g.All(func(id ItemID, pos geo.Point) bool {
		seen[id] = true
		return true
	})
	if len(seen) != 20 {
		t.Fatalf("All visited %d", len(seen))
	}
	n := 0
	g.All(func(ItemID, geo.Point) bool { n++; return false })
	if n != 1 {
		t.Fatalf("All early stop visited %d", n)
	}
}

func TestOutOfBoundsClamped(t *testing.T) {
	g, _ := NewGrid(bounds10km(), 1000)
	g.Insert(1, geo.Point{X: -5000, Y: 25000}) // clamped into corner cells
	found := false
	g.Within(geo.Point{X: -5000, Y: 25000}, 1, func(id ItemID, pos geo.Point) bool {
		found = id == 1
		return true
	})
	if !found {
		t.Fatal("clamped item not found near its true position")
	}
}

func TestMemoryGrowsWithItems(t *testing.T) {
	g, _ := NewGrid(bounds10km(), 1000)
	m0 := g.MemoryBytes()
	for i := ItemID(0); i < 100; i++ {
		g.Insert(i, geo.Point{X: float64(i) * 90, Y: float64(i) * 90})
	}
	if g.MemoryBytes() <= m0 {
		t.Fatal("memory estimate did not grow")
	}
}

func TestTShareGridSortedLists(t *testing.T) {
	tg, err := NewTShareGrid(bounds10km(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 500, Y: 500}
	lst := tg.CellsByDistance(p)
	if len(lst) != tg.NumCells() {
		t.Fatalf("list covers %d cells want %d", len(lst), tg.NumCells())
	}
	// First cell must be the one containing p; distances must be
	// non-decreasing.
	if lst[0] != int32(tg.cellOf(p)) {
		t.Fatalf("first cell=%d want %d", lst[0], tg.cellOf(p))
	}
	pc := tg.CellCenter(tg.cellOf(p))
	prev := -1.0
	for _, c := range lst {
		d := pc.Dist(tg.CellCenter(int(c)))
		if d < prev-1e-9 {
			t.Fatal("cell list not sorted by distance")
		}
		prev = d
	}
}

func TestTShareGridItemsInCell(t *testing.T) {
	tg, _ := NewTShareGrid(bounds10km(), 2000)
	tg.Insert(3, geo.Point{X: 100, Y: 100})
	tg.Insert(4, geo.Point{X: 9900, Y: 9900})
	cell := int(tg.CellsByDistance(geo.Point{X: 100, Y: 100})[0])
	var got []ItemID
	tg.ItemsInCell(cell, func(id ItemID, pos geo.Point) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("items in cell=%v", got)
	}
}

func TestTShareGridMemoryDominatesPlainGrid(t *testing.T) {
	plain, _ := NewGrid(bounds10km(), 1000)
	tshare, err := NewTShareGrid(bounds10km(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tshare.MemoryBytes() <= plain.MemoryBytes() {
		t.Fatalf("tshare grid memory %d should exceed plain %d",
			tshare.MemoryBytes(), plain.MemoryBytes())
	}
	if tshare.CellRadius() <= 0 {
		t.Fatal("cell radius")
	}
}

// TestTShareMemoryDecreasesWithLargerCells reproduces the shape of the
// paper's Fig. 5 memory result: tshare's index shrinks drastically as g
// grows (609 MB → 5 MB in NYC), because the sorted lists are O(C²).
func TestTShareMemoryDecreasesWithLargerCells(t *testing.T) {
	m1, err := NewTShareGrid(bounds10km(), 500)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewTShareGrid(bounds10km(), 2500)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MemoryBytes() <= m2.MemoryBytes()*10 {
		t.Fatalf("expected steep memory drop: g=500m→%d bytes, g=2500m→%d bytes",
			m1.MemoryBytes(), m2.MemoryBytes())
	}
}
