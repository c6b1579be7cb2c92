package main

// The reference kernel: how fast is the box right now?
//
// The benchmark's box is a few virtual CPUs of a shared host, and what the
// neighbours do changes how fast a core executes the same instructions — the
// planner's inner loop (heap Dijkstra over a few thousand vertices) runs 1.3
// times as long for seconds to minutes at a time, CPU time and wall time
// alike, with nothing else running in the VM. No statistic over one run
// removes a drift that outlasts the run, so the compute-bound metrics are
// reported in reference time instead: a duration is multiplied by
// refKernelNs ÷ (what the kernel below took at that moment). The kernel is a
// binary-heap Dijkstra over a fixed synthetic road-like graph — the same
// instruction and cache mix as the system's hot path, sharing none of its
// code, so no change to the program can move it. Thirty runs of one seed on
// one CPU spread 10 % in wall time and 2.6 % in reference time.
//
// What is and is not expressed in reference time is listed in README.md
// ("Reference time"); the raw factor is the layer metric loadgen.box_speed.

import "time"

const (
	refVertices = 6000
	refDegree   = 6
	// refKernelNs is the kernel's duration on this box in a calm phase: with
	// it, reference time reads as plain time when nobody else is on the host.
	refKernelNs = 1.20e6
	// refRuns kernel runs make one speed reading: 7 ms, after each 150 ms
	// chunk of plan-offline and once a second beside the serve-* workloads.
	refRuns = 5
)

type refKernel struct {
	first []int32 // CSR
	head  []int32
	w     []float64
	dist  []float64
	heap  []int32
	pos   []int32 // heap position, -1 unseen, -2 settled
	src   int32
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		first: make([]int32, refVertices+1),
		dist:  make([]float64, refVertices),
		pos:   make([]int32, refVertices),
		heap:  make([]int32, 0, refVertices),
	}
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for v := 0; v < refVertices; v++ {
		k.first[v] = int32(len(k.head))
		for e := 0; e < refDegree; e++ {
			// Mostly short edges and one long one per vertex, like a road
			// network with a few arterials.
			u := (v + int(next()%64) - 32 + refVertices) % refVertices
			if e == 0 {
				u = int(next() % refVertices)
			}
			k.head = append(k.head, int32(u))
			k.w = append(k.w, 1+float64(next()%1000)/10)
		}
	}
	k.first[refVertices] = int32(len(k.head))
	return k
}

func (k *refKernel) up(i int) {
	h := k.heap
	for i > 0 {
		p := (i - 1) / 2
		if k.dist[h[i]] >= k.dist[h[p]] {
			break
		}
		h[i], h[p] = h[p], h[i]
		k.pos[h[i]], k.pos[h[p]] = int32(i), int32(p)
		i = p
	}
}

func (k *refKernel) down(i int) {
	h := k.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && k.dist[h[r]] < k.dist[h[l]] {
			l = r
		}
		if k.dist[h[l]] >= k.dist[h[i]] {
			return
		}
		h[i], h[l] = h[l], h[i]
		k.pos[h[i]], k.pos[h[l]] = int32(i), int32(l)
		i = l
	}
}

// once settles the whole graph from the next source and returns how long
// that took, in nanoseconds.
func (k *refKernel) once() float64 {
	t0 := time.Now()
	for i := range k.dist {
		k.dist[i] = 1e300
		k.pos[i] = -1
	}
	k.src = (k.src + 997) % refVertices
	k.dist[k.src] = 0
	k.heap = append(k.heap[:0], k.src)
	k.pos[k.src] = 0
	for len(k.heap) > 0 {
		v := k.heap[0]
		last := len(k.heap) - 1
		k.heap[0] = k.heap[last]
		k.pos[k.heap[0]] = 0
		k.heap = k.heap[:last]
		k.pos[v] = -2
		if last > 0 {
			k.down(0)
		}
		k.sink += k.dist[v]
		for e := k.first[v]; e < k.first[v+1]; e++ {
			u := k.head[e]
			if k.pos[u] == -2 {
				continue
			}
			if nd := k.dist[v] + k.w[e]; nd < k.dist[u] {
				k.dist[u] = nd
				if k.pos[u] < 0 {
					k.heap = append(k.heap, u)
					k.pos[u] = int32(len(k.heap) - 1)
				}
				k.up(int(k.pos[u]))
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds())
}

// speed runs the kernel n times and returns the box's speed relative to the
// reference: 1 in a calm phase, 0.7 when the same instructions take 1/0.7 as
// long. It is taken from the fastest of the n runs: the first finds the
// caches full of whatever ran before it, and a run that loses its core to
// the scheduler says nothing about the core.
func (k *refKernel) speed(n int) float64 {
	best := k.once()
	for i := 1; i < n; i++ {
		best = min(best, k.once())
	}
	return refKernelNs / best
}

// timed runs f and returns how long it took in reference seconds: wall time
// multiplied by the box's speed just before and just after.
func (k *refKernel) timed(f func() error) (float64, error) {
	before := k.speed(refRuns)
	t0 := time.Now()
	err := f()
	wall := time.Since(t0).Seconds()
	return wall * (before + k.speed(refRuns)) / 2, err
}
