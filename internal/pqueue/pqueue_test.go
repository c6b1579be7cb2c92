package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPushPopSorted(t *testing.T) {
	h := New(10)
	prios := []float64{5, 1, 4, 2, 3}
	for i, p := range prios {
		h.Push(int32(i), p)
	}
	want := []int32{1, 3, 4, 2, 0}
	for _, w := range want {
		id, _ := h.Pop()
		if id != w {
			t.Fatalf("pop order wrong: got %d want %d", id, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len=%d want 0", h.Len())
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Push(2, 5) // decrease
	id, p := h.Pop()
	if id != 2 || p != 5 {
		t.Fatalf("got (%d,%v) want (2,5)", id, p)
	}
}

func TestIncreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Push(0, 10) // increase
	id, p := h.Pop()
	if id != 1 || p != 2 {
		t.Fatalf("got (%d,%v) want (1,2)", id, p)
	}
	id, p = h.Pop()
	if id != 0 || p != 10 {
		t.Fatalf("got (%d,%v) want (0,10)", id, p)
	}
}

func TestContainsAndPriority(t *testing.T) {
	h := New(3)
	h.Push(1, 7)
	if !h.Contains(1) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if h.Priority(1) != 7 {
		t.Fatalf("Priority=%v", h.Priority(1))
	}
	h.Pop()
	if h.Contains(1) {
		t.Fatal("popped item should not be contained")
	}
}

func TestMin(t *testing.T) {
	h := New(3)
	h.Push(0, 3)
	h.Push(1, 1)
	id, p := h.Min()
	if id != 1 || p != 1 {
		t.Fatalf("Min=(%d,%v)", id, p)
	}
	if h.Len() != 2 {
		t.Fatal("Min must not remove")
	}
}

func TestReset(t *testing.T) {
	h := New(8)
	for i := int32(0); i < 8; i++ {
		h.Push(i, float64(i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset=%d", h.Len())
	}
	for i := int32(0); i < 8; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d contained after reset", i)
		}
	}
	// Heap must be fully reusable.
	h.Push(3, 1)
	h.Push(5, 0.5)
	if id, _ := h.Pop(); id != 5 {
		t.Fatal("reuse after reset broken")
	}
}

func TestEmptyPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap should panic")
		}
	}()
	New(1).Pop()
}

func TestEmptyMinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min on empty heap should panic")
		}
	}()
	New(1).Min()
}

func TestCapacity(t *testing.T) {
	if New(17).Capacity() != 17 {
		t.Fatal("Capacity wrong")
	}
}

// TestRandomAgainstSort pushes random priorities (with random decrease-key
// updates) and checks that pops come out in the final sorted order. Every
// other trial draws from eight priorities, so ties are everywhere, and
// they must leave in ID order.
func TestRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		h := New(n)
		final := make(map[int32]float64)
		for i := 0; i < 3*n; i++ {
			id := int32(rng.Intn(n))
			p := rng.Float64() * 1000
			if trial%2 == 1 {
				p = float64(rng.Intn(8))
			}
			h.Push(id, p)
			final[id] = p
		}
		type kv struct {
			id int32
			p  float64
		}
		var want []kv
		for id, p := range final {
			want = append(want, kv{id, p})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].p != want[j].p {
				return want[i].p < want[j].p
			}
			return want[i].id < want[j].id
		})
		if h.Len() != len(want) {
			t.Fatalf("len=%d want %d", h.Len(), len(want))
		}
		for k := 0; h.Len() > 0; k++ {
			if id, p := h.Pop(); id != want[k].id || p != want[k].p {
				t.Fatalf("pop %d: (%d, %v), want (%d, %v)", k, id, p, want[k].id, want[k].p)
			}
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	const n = 1024
	h := New(n)
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j := 0; j < n; j++ {
			h.Push(int32(j), prios[j])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
