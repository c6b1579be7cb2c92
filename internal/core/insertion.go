package core

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Insertion is the outcome of an insertion operator (Definition 6): insert
// o_r after position I and d_r after position J of the route (positions
// count vertices l₀..l_n, so 0 means "right after the current location" and
// n means "append at the end"; I ≤ J). Delta is the increased travel time.
type Insertion struct {
	OK    bool
	I, J  int
	Delta float64
}

// Infeasible is the result reported when no feasible insertion exists.
var Infeasible = Insertion{OK: false, Delta: math.Inf(1)}

// better reports whether (delta, i, j) improves on ins, breaking ties by
// earliest positions to keep all operators deterministic and comparable.
func (ins *Insertion) better(delta float64, i, j int) bool {
	if !ins.OK {
		return true
	}
	if delta < ins.Delta-feasEps {
		return true
	}
	if delta > ins.Delta+feasEps {
		return false
	}
	if i != ins.I {
		return i < ins.I
	}
	return j < ins.J
}

func (ins *Insertion) update(delta float64, i, j int) {
	if ins.better(delta, i, j) {
		ins.OK = true
		ins.Delta = delta
		ins.I = i
		ins.J = j
	}
}

// clampNonNegative snaps floating-point noise out of the result: a true
// insertion can never shorten a route (triangle inequality), but detour
// arithmetic can produce deltas like −1e-12, which would break the
// Δ* ≥ LBΔ* ≥ 0 invariant the Lemma 8 pruning relies on.
func (ins *Insertion) clampNonNegative() Insertion {
	if ins.OK && ins.Delta < 0 {
		ins.Delta = 0
	}
	return *ins
}

// insCtx carries the auxiliary arrays of §4.3 (Eq. 6–9) plus the per-stop
// distances to the new request's origin and destination. Building it from
// the cached route arrivals costs no distance queries for ddl/arr/slack/
// picked; distO/distD cost 2n+1 queries when exact (Lemma 9) or zero
// when filled with lower bounds (decision phase, Lemma 7).
// distD[0] = dis(l₀, d_r) is never filled: the drop-off always follows the
// pickup, so no operator reads it (det2, deltaEqual and the DPs index
// distD from 1).
//
// The arrays are owned by the enclosing Scratch and reused across
// requests (grown, never shrunk), which is what makes the steady-state
// planning path allocation-free.
type insCtx struct {
	rt     *Route
	kw     int
	req    *Request
	L      float64 // dis(o_r, d_r)
	n      int     // number of stops
	distO  []float64
	distD  []float64
	slack  []float64
	picked []int
}

// reset re-points the context at (rt, kw, req) and rebuilds the slack and
// picked arrays in the reused buffers; distO/distD still need fillExact or
// fillLower.
func (c *insCtx) reset(rt *Route, kw int, req *Request, L float64) {
	n := rt.Len()
	c.rt, c.kw, c.req, c.L, c.n = rt, kw, req, L, n
	c.distO = grown(c.distO, n+1)
	c.distD = grown(c.distD, n+1)
	c.slack = grown(c.slack, n+1)
	c.picked = grown(c.picked, n+1)
	// slack[k] = min_{k'>k} (ddl[k'] − arr[k']); slack[n] = +Inf (Eq. 8).
	c.slack[n] = math.Inf(1)
	for k := n - 1; k >= 0; k-- {
		gap := rt.ddlAt(k+1) - rt.arrAt(k+1)
		c.slack[k] = min(c.slack[k+1], gap)
	}
	// picked[k]: onboard load after leaving vertex k (Eq. 9).
	c.picked[0] = rt.Onboard
	for k := 1; k <= n; k++ {
		c.picked[k] = c.picked[k-1] + rt.Stops[k-1].loadDelta()
	}
}

// fillExact populates distO[0..n] and distD[1..n] with exact oracle
// distances: 2n+1 queries given L, Lemma 9's count (dis(l_k, o_r) for
// every k, dis(l_k, d_r) for every stop k ≥ 1).
func (c *insCtx) fillExact(dist DistFunc) {
	c.distO[0] = dist(c.rt.Loc, c.req.Origin)
	for k := 1; k <= c.n; k++ {
		v := c.rt.Stops[k-1].Vertex
		c.distO[k] = dist(v, c.req.Origin)
		c.distD[k] = dist(v, c.req.Dest)
	}
}

// fillLower populates the same entries as fillExact with the request's
// bound b, given toO = b's bound on dis(l₀, o_r): zero distance queries
// (Lemma 7).
func (c *insCtx) fillLower(b *reqBound, toO float64) {
	c.distO[0] = toO
	for k := 1; k <= c.n; k++ {
		c.distO[k], c.distD[k] = b.toBoth(c.rt.Stops[k-1].Vertex)
	}
}

// emptyRouteDelta is linearDP at n = 0 in closed form, clamped at 0. An
// empty route has one insertion, (0, 0): Δ = toOrigin + L (deltaEqual),
// feasible when the request fits (feasibleEqual's capacity test, with
// picked[0] = Onboard) and its drop-off meets e_r (the deadline test);
// slack[0] = +Inf, so the shift test refuses only a NaN. The expressions
// are linearDP's, operands and order included, so the bits are too. It
// returns +Inf when infeasible. With toOrigin a lower bound on dis(l₀, o_r)
// it is the Lemma 7 bound; with the exact dis(l₀, o_r) it is the Δ*
// LinearDP returns.
func emptyRouteDelta(rt *Route, kw int, req *Request, toOrigin, L float64) float64 {
	d := toOrigin + L
	if rt.Onboard > kw-req.Capacity || rt.Now+toOrigin+L > req.Deadline+feasEps || math.IsNaN(d) {
		return math.Inf(1)
	}
	return max(0, d)
}

// det1 is det(l_i, o_r, l_{i+1}) for i < n (Fig. 2c's pickup detour).
func (c *insCtx) det1(i int) float64 {
	return c.distO[i] + c.distO[i+1] - c.rt.legDist(i+1)
}

// det2 is det(l_j, d_r, l_{j+1}); for j = n it degenerates to dis(l_n, d_r).
func (c *insCtx) det2(j int) float64 {
	if j == c.n {
		return c.distD[c.n]
	}
	return c.distD[j] + c.distD[j+1] - c.rt.legDist(j+1)
}

// deltaEqual is Δ_{i,i} (Eq. 5's first two cases).
func (c *insCtx) deltaEqual(i int) float64 {
	if i == c.n {
		return c.distO[c.n] + c.L
	}
	return c.distO[i] + c.L + c.distD[i+1] - c.rt.legDist(i+1)
}

// feasibleEqual checks the i = j case at position k: capacity (Lemma 5(1)),
// the request's own deadline (Lemma 4(3)) and the shift of later stops
// (Lemma 4(4)); delta must be deltaEqual(k).
func (c *insCtx) feasibleEqual(k int, delta float64) bool {
	if c.picked[k] > c.kw-c.req.Capacity {
		return false
	}
	if c.rt.arrAt(k)+c.distO[k]+c.L > c.req.Deadline+feasEps {
		return false
	}
	return delta <= c.slack[k]+feasEps
}

// LinearDPInsertion is Algorithm 3: the paper's O(n) insertion. It scans
// delivery positions j once, maintaining Dio[j] = min_{i<j} det(l_i, o_r,
// l_{i+1}) and its argmin Plc[j] via the DP of Eq. 11–12, and handles the
// i = j special cases directly. L must be dis(o_r, d_r).
//
// This convenience form allocates a fresh context per call; planners use
// Scratch.LinearDP, which reuses one arena across requests.
func LinearDPInsertion(rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion {
	var sc Scratch
	return sc.LinearDP(rt, kw, req, L, dist)
}

// linearDP runs Algorithm 3 on a prepared context (exact or lower-bound
// distances; with lower bounds the result value is LBΔ*, Eq. 17).
func linearDP(c *insCtx) Insertion {
	best := Infeasible
	dio := math.Inf(1) // Dio[j]: min detour for inserting o_r among i < j
	plc := -1          // Plc[j]
	kwFree := c.kw - c.req.Capacity
	for j := 0; j <= c.n; j++ {
		// i = j special cases (Fig. 2a, 2b).
		if d := c.deltaEqual(j); c.feasibleEqual(j, d) {
			best.update(d, j, j)
		}
		// General case i < j (Fig. 2c), via Corollary 1.
		if j > 0 && plc >= 0 {
			if c.picked[j] <= kwFree &&
				c.rt.arrAt(j)+dio+c.distD[j] <= c.req.Deadline+feasEps {
				if d := dio + c.det2(j); d <= c.slack[j]+feasEps {
					best.update(d, plc, j)
				}
			}
		}
		// Prune: arrivals are non-decreasing, so once arr[j] exceeds e_r no
		// later pickup or delivery can meet the request's deadline
		// (Algorithm 3 line 8).
		if c.rt.arrAt(j) > c.req.Deadline+feasEps {
			break
		}
		// DP transition to j+1 (Eq. 11–12): candidate i = j joins.
		if j < c.n {
			if c.picked[j] > kwFree {
				// Capacity reset: no pickup at or before j can carry the
				// request past vertex j (Lemma 5).
				dio = math.Inf(1)
				plc = -1
			} else if d := c.det1(j); d <= c.slack[j]+feasEps && d < dio {
				dio = d
				plc = j
			}
		}
	}
	return best.clampNonNegative()
}

// NaiveDPInsertion is Algorithm 2: enumerate all O(n²) position pairs but
// check feasibility and compute Δ in O(1) via the auxiliary arrays. Like
// LinearDPInsertion, this convenience form allocates; see Scratch.NaiveDP.
func NaiveDPInsertion(rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion {
	var sc Scratch
	return sc.NaiveDP(rt, kw, req, L, dist)
}

// naiveDP runs Algorithm 2 on a prepared context.
func naiveDP(c *insCtx) Insertion {
	best := Infeasible
	kwFree := c.kw - c.req.Capacity
	for i := 0; i <= c.n; i++ {
		// Lemma 4(1)-style prune: by the triangle inequality
		// arr[i'] + dis(l_i', o_r) is non-decreasing in i', so once the
		// pickup cannot meet e_r − L no later i can (Algorithm 2 line 4).
		if c.rt.arrAt(i)+c.distO[i]+c.L > c.req.Deadline+feasEps {
			break
		}
		if c.picked[i] > kwFree { // Lemma 5(1) (Algorithm 2 line 5)
			continue
		}
		if d := c.deltaEqual(i); d <= c.slack[i]+feasEps {
			best.update(d, i, i)
		}
		if i == c.n {
			continue
		}
		d1 := c.det1(i)
		if d1 > c.slack[i]+feasEps { // Lemma 4(2) (Algorithm 2 line 6)
			continue
		}
		for j := i + 1; j <= c.n; j++ {
			if c.picked[j] > kwFree { // Lemma 5(2) (Algorithm 2 line 8)
				break
			}
			// Lemma 4(3): arrival at d_r. By the triangle inequality
			// arr[j] + dis(l_j, d_r) is non-decreasing in j, so break.
			if c.rt.arrAt(j)+d1+c.distD[j] > c.req.Deadline+feasEps {
				break
			}
			delta := d1 + c.det2(j)
			if delta <= c.slack[j]+feasEps { // Lemma 4(4)
				best.update(delta, i, j)
			}
		}
	}
	return best.clampNonNegative()
}

// BasicInsertion is Algorithm 1: enumerate all O(n²) position pairs and
// check each candidate route from scratch in O(n) time and O(n) distance
// queries, for O(n³) total work. It is also the reference implementation
// the DP variants are validated against. See Scratch.Basic for the
// buffer-reusing form the baselines run.
func BasicInsertion(rt *Route, kw int, req *Request, dist DistFunc) Insertion {
	var sc Scratch
	return sc.Basic(rt, kw, req, dist)
}

// visit is one stop of a candidate route walked by simulateCandidate.
type visit struct {
	vertex roadnet.VertexID
	ddl    float64
	load   int
}

// simulateCandidate walks the route that results from inserting o_r after
// position i and d_r after position j, recomputing every arrival time with
// fresh distance queries and checking every deadline and capacity
// constraint. It returns the increased travel time. The visit sequence is
// built in buf (reused across calls, returned for reuse).
func simulateCandidate(buf []visit, rt *Route, kw int, req *Request, i, j int, dist DistFunc) ([]visit, float64, bool) {
	n := rt.Len()
	if i < 0 || j < i || j > n {
		return buf, 0, false
	}
	if req.Capacity > kw {
		return buf, 0, false
	}
	seq := buf[:0]
	pickupDDL := req.Deadline - dist(req.Origin, req.Dest)
	for k := 0; k < n; k++ {
		if k == i {
			seq = append(seq, visit{req.Origin, pickupDDL, req.Capacity})
		}
		if k == j && i < j {
			seq = append(seq, visit{req.Dest, req.Deadline, -req.Capacity})
		}
		if k == i && i == j {
			seq = append(seq, visit{req.Dest, req.Deadline, -req.Capacity})
		}
		s := rt.Stops[k]
		seq = append(seq, visit{s.Vertex, s.DDL, s.loadDelta()})
	}
	if i == n {
		seq = append(seq, visit{req.Origin, pickupDDL, req.Capacity})
	}
	if j == n {
		seq = append(seq, visit{req.Dest, req.Deadline, -req.Capacity})
	}

	t := rt.Now
	prev := rt.Loc
	load := rt.Onboard
	for _, v := range seq {
		t += dist(prev, v.vertex)
		if t > v.ddl+feasEps {
			return seq, 0, false
		}
		load += v.load
		if load > kw {
			return seq, 0, false
		}
		prev = v.vertex
	}
	oldEnd := rt.PlannedEnd()
	return seq, (t - rt.Now) - (oldEnd - rt.Now), true
}

// Apply splices the chosen insertion into the route and updates the cached
// arrival times incrementally with at most three extra distance queries
// (plus the L the caller already has), per Lemma 9 / §5.3: dis(l_I, o_r),
// dis(o_r, l_{I+1}) and dis(l_J, d_r) as needed.
//
// The splice is performed in place: the route's Stops/Arr arrays grow by
// two and the tail is shifted, so a route allocates only when it outgrows
// its backing arrays — never per accepted request in steady state. Routes
// therefore own their backing arrays exclusively; holders of aliases into
// rt.Stops/rt.Arr (none exist in this codebase — the simulator re-slices
// forward, snapshots copy) must Clone first.
func Apply(rt *Route, kw int, req *Request, ins Insertion, L float64, dist DistFunc) error {
	if !ins.OK {
		return fmt.Errorf("core: applying infeasible insertion")
	}
	n := rt.Len()
	if ins.I < 0 || ins.J < ins.I || ins.J > n {
		return fmt.Errorf("core: insertion positions (%d,%d) out of range n=%d", ins.I, ins.J, n)
	}
	pickup := Stop{Vertex: req.Origin, Kind: Pickup, Req: req.ID, Cap: req.Capacity, DDL: req.Deadline - L}
	dropoff := Stop{Vertex: req.Dest, Kind: Dropoff, Req: req.ID, Cap: req.Capacity, DDL: req.Deadline}

	distLiOr := dist(rt.vertexAt(ins.I), req.Origin)
	pickArr := rt.arrAt(ins.I) + distLiOr

	if ins.I == ins.J {
		rt.Stops = append(rt.Stops, Stop{}, Stop{})
		rt.Arr = append(rt.Arr, 0, 0)
		stops, arr := rt.Stops, rt.Arr
		// stops [0, I) unchanged; pickup; dropoff; stops [I, n) shifted Δ.
		for k := n - 1; k >= ins.I; k-- {
			stops[k+2] = stops[k]
			arr[k+2] = arr[k] + ins.Delta
		}
		stops[ins.I], stops[ins.I+1] = pickup, dropoff
		arr[ins.I], arr[ins.I+1] = pickArr, pickArr+L
	} else {
		// Both detour legs read pre-splice state; compute before shifting.
		d1 := distLiOr + dist(req.Origin, rt.vertexAt(ins.I+1)) - rt.legDist(ins.I+1)
		dropArr := rt.arrAt(ins.J) + d1 + dist(rt.vertexAt(ins.J), req.Dest)
		rt.Stops = append(rt.Stops, Stop{}, Stop{})
		rt.Arr = append(rt.Arr, 0, 0)
		stops, arr := rt.Stops, rt.Arr
		for k := n - 1; k >= ins.J; k-- { // shifted by the full Δ
			stops[k+2] = stops[k]
			arr[k+2] = arr[k] + ins.Delta
		}
		stops[ins.J+1] = dropoff
		arr[ins.J+1] = dropArr
		for k := ins.J - 1; k >= ins.I; k-- { // shifted by the pickup detour
			stops[k+1] = stops[k]
			arr[k+1] = arr[k] + d1
		}
		stops[ins.I] = pickup
		arr[ins.I] = pickArr
	}
	return nil
}
