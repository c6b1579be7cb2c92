package roadnet

// Live traffic: epoch-versioned edge weights over an otherwise immutable
// Graph. The paper treats travel time as the cost model (§3.1) but freezes
// it at ingestion; production serving needs weights that change while
// routes are in flight. This file adds the substrate the upper layers
// build on:
//
//   - TrafficUpdate: a multiplicative slowdown rule (factor ≥ 1 relative
//     to the BASE weights) selecting edges by road class, bounding box
//     and/or an explicit edge list.
//   - TrafficProfile: a schedule of updates ("at time T, motorways slow by
//     1.5×"), parsed from the urpsm-traffic text format (FORMATS.md §6) so
//     offline experiments can replay a congestion trace.
//   - Overlay: the mutable weight state. Each Apply sets the multipliers
//     of the matched edges, advances a monotone epoch counter and freezes
//     a new immutable Graph snapshot sharing the topology arrays of the
//     base — only the cost array is fresh, so a snapshot costs O(|E|)
//     floats and every existing Graph consumer (oracles, simulators)
//     works on it unchanged.
//
// The factor ≥ 1 invariant is load-bearing: edge costs never drop below
// the base graph's, and the base costs satisfy cost ≥ euclid/MaxSpeed by
// construction, so every Euclidean travel-time lower bound (the decision
// phase of pruneGreedyDP, the candidate radius of Fleet.Candidates)
// remains admissible at every epoch. Congestion easing is expressed by
// setting a smaller factor (down to 1), never by going below the base
// speed. See DESIGN.md §11.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// MaxTrafficFactor bounds a slowdown multiplier; beyond it an edge is
// effectively closed and the value is almost certainly a typo.
const MaxTrafficFactor = 1000

// TrafficUpdate is one slowdown rule: set the weight multiplier of every
// matched edge to Factor (relative to the base graph, not cumulatively).
// Selectors combine with AND; an absent selector matches everything, so
// the zero-selector update {Factor: 1} resets the whole network. The JSON
// form is the body element of POST /v1/traffic (FORMATS.md §6).
type TrafficUpdate struct {
	// Factor multiplies the base travel time of matched edges; must be in
	// [1, MaxTrafficFactor]. 1 restores base speed.
	Factor float64 `json:"factor"`
	// Class restricts the rule to one road class
	// (motorway|arterial|collector|residential); empty matches all.
	Class string `json:"class,omitempty"`
	// BBox restricts the rule to edges with both endpoints inside the
	// axis-aligned box [minX minY maxX maxY] (graph coordinates, meters);
	// empty matches all. Any other length is invalid.
	BBox []float64 `json:"bbox,omitempty"`
	// Edges restricts the rule to the listed undirected edges [u v];
	// empty matches all. A listed pair that is not an edge of the graph
	// is invalid.
	Edges [][2]int64 `json:"edges,omitempty"`
}

// Validate checks the update against g without applying it.
func (u *TrafficUpdate) Validate(g *Graph) error {
	if math.IsNaN(u.Factor) || u.Factor < 1 || u.Factor > MaxTrafficFactor {
		return fmt.Errorf("roadnet: traffic factor %v outside [1,%d]", u.Factor, MaxTrafficFactor)
	}
	if u.Class != "" {
		if _, err := geo.ParseRoadClass(u.Class); err != nil {
			return err
		}
	}
	switch len(u.BBox) {
	case 0:
	case 4:
		for _, v := range u.BBox {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("roadnet: non-finite traffic bbox %v", u.BBox)
			}
		}
		if u.BBox[0] > u.BBox[2] || u.BBox[1] > u.BBox[3] {
			return fmt.Errorf("roadnet: inverted traffic bbox %v", u.BBox)
		}
	default:
		return fmt.Errorf("roadnet: traffic bbox needs 4 values [minX minY maxX maxY], got %d", len(u.BBox))
	}
	nv := int64(g.NumVertices())
	for _, e := range u.Edges {
		if e[0] < 0 || e[0] >= nv || e[1] < 0 || e[1] >= nv {
			return fmt.Errorf("roadnet: traffic edge (%d,%d) out of range [0,%d)", e[0], e[1], nv)
		}
		if _, ok := g.EdgeCost(VertexID(e[0]), VertexID(e[1])); !ok {
			return fmt.Errorf("roadnet: traffic edge (%d,%d) does not exist", e[0], e[1])
		}
	}
	return nil
}

// ValidateTrafficUpdates checks a whole batch against g; Overlay.Apply runs
// it before touching any state so a bad batch cannot half-apply.
func ValidateTrafficUpdates(g *Graph, ups []TrafficUpdate) error {
	if len(ups) == 0 {
		return fmt.Errorf("roadnet: empty traffic update")
	}
	for i := range ups {
		if err := ups[i].Validate(g); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}

// TrafficEvent schedules a batch of updates at one simulation time.
type TrafficEvent struct {
	At      float64
	Updates []TrafficUpdate
}

// TrafficProfile is a time-ordered congestion trace. Events are applied
// atomically in order; Overlay.Apply of each event's batch advances the
// epoch by one.
type TrafficProfile struct {
	Events []TrafficEvent
}

// Validate checks every event against g and that event times are finite,
// non-negative and strictly increasing.
func (p *TrafficProfile) Validate(g *Graph) error {
	prev := math.Inf(-1)
	for i := range p.Events {
		e := &p.Events[i]
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("roadnet: traffic event %d at bad time %v", i, e.At)
		}
		if e.At <= prev {
			return fmt.Errorf("roadnet: traffic event %d time %v not after %v", i, e.At, prev)
		}
		prev = e.At
		if err := ValidateTrafficUpdates(g, e.Updates); err != nil {
			return fmt.Errorf("roadnet: traffic event %d: %w", i, err)
		}
	}
	return nil
}

// Overlay is the mutable weight state over an immutable base Graph: a
// per-arc multiplier array and a monotone epoch counter. It is not safe
// for concurrent use; the sim and serve layers apply updates from their
// single mutation point (the event loop / between requests).
type Overlay struct {
	base  *Graph
	mult  []float64 // per-arc multiplier, parallel to base.adjCost
	epoch uint64
	cur   *Graph
}

// NewOverlay wraps base at epoch 0 with all multipliers 1; Graph()
// returns base itself until the first Apply.
func NewOverlay(base *Graph) *Overlay {
	mult := make([]float64, len(base.adjCost))
	for i := range mult {
		mult[i] = 1
	}
	return &Overlay{base: base, mult: mult, cur: base}
}

// Graph returns the current weight snapshot. The returned graph is
// immutable; later Applies produce new snapshots and never mutate it.
func (o *Overlay) Graph() *Graph { return o.cur }

// Epoch returns the number of Apply calls so far.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// ArcFactor is the multiplier of one arc (u,v), the unit of an overlay's
// persisted state (Overlay.Factors, RestoreOverlay). Its JSON form is
// [u, v, factor].
type ArcFactor struct {
	U, V   VertexID
	Factor float64
}

// MarshalJSON encodes the factor as [u, v, factor].
func (f ArcFactor) MarshalJSON() ([]byte, error) { return json.Marshal([3]any{f.U, f.V, f.Factor}) }

// UnmarshalJSON decodes [u, v, factor]; RestoreOverlay checks ranges.
func (f *ArcFactor) UnmarshalJSON(b []byte) error {
	var a []float64
	if err := json.Unmarshal(b, &a); err != nil || len(a) != 3 ||
		a[0] != float64(int32(a[0])) || a[1] != float64(int32(a[1])) {
		return fmt.Errorf("roadnet: arc factor %s is not [u, v, factor]", b)
	}
	f.U, f.V, f.Factor = VertexID(a[0]), VertexID(a[1]), a[2]
	return nil
}

// Factors returns the overlay's weight state: one entry per arc whose
// multiplier is not 1, in arc (CSR) order. Its size is bounded by the
// graph, however many Applies led to it.
func (o *Overlay) Factors() []ArcFactor {
	g := o.base
	var out []ArcFactor
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for a := g.adjStart[v]; a < g.adjStart[v+1]; a++ {
			if o.mult[a] != 1 {
				out = append(out, ArcFactor{U: v, V: g.adjTo[a], Factor: o.mult[a]})
			}
		}
	}
	return out
}

// RestoreOverlay is the inverse of Factors: base at epoch with the listed
// arc multipliers and every other arc at 1, so its Graph has the source
// overlay's arc costs bit for bit and its WeightEpoch (a reweighted
// snapshot even with no factors, as after a clear). The factors come from
// outside the program and are checked: each names an arc of base, in arc
// order without repeats, with a factor in [1, MaxTrafficFactor] equal to
// its reverse arc's; and there are none at epoch 0.
func RestoreOverlay(base *Graph, epoch uint64, factors []ArcFactor) (*Overlay, error) {
	if epoch == 0 && len(factors) > 0 {
		return nil, fmt.Errorf("roadnet: %d arc factors at epoch 0", len(factors))
	}
	o := NewOverlay(base)
	prev := int32(-1)
	for _, f := range factors {
		if f.U < 0 || int(f.U) >= base.NumVertices() {
			return nil, fmt.Errorf("roadnet: arc factor (%d,%d) out of range [0,%d)", f.U, f.V, base.NumVertices())
		}
		a := base.ArcIndex(f.U, f.V)
		switch {
		case a < 0:
			return nil, fmt.Errorf("roadnet: arc factor (%d,%d) names no edge", f.U, f.V)
		case a <= prev:
			return nil, fmt.Errorf("roadnet: arc (%d,%d) out of arc order or listed twice", f.U, f.V)
		case math.IsNaN(f.Factor) || f.Factor < 1 || f.Factor > MaxTrafficFactor:
			return nil, fmt.Errorf("roadnet: arc (%d,%d) factor %v outside [1,%d]", f.U, f.V, f.Factor, MaxTrafficFactor)
		}
		o.mult[a], prev = f.Factor, a
	}
	for _, f := range factors {
		if r := o.mult[base.ArcIndex(f.V, f.U)]; r != f.Factor {
			return nil, fmt.Errorf("roadnet: arc (%d,%d) factor %v but its reverse %v", f.U, f.V, f.Factor, r)
		}
	}
	if o.epoch = epoch; epoch > 0 {
		o.freeze()
	}
	return o, nil
}

// Apply validates the whole batch, then sets the multiplier of every arc
// matched by each update (later updates win on overlap), bumps the epoch
// and freezes a new snapshot. On error nothing changes. It returns the
// new snapshot, the new epoch and the number of undirected edges whose
// multiplier changed.
func (o *Overlay) Apply(ups []TrafficUpdate) (*Graph, uint64, int, error) {
	if err := ValidateTrafficUpdates(o.base, ups); err != nil {
		return nil, 0, 0, err
	}
	g := o.base
	changedArcs := 0
	for i := range ups {
		u := &ups[i]
		var class geo.RoadClass
		if u.Class != "" {
			class, _ = geo.ParseRoadClass(u.Class)
		}
		var box geo.BBox
		if len(u.BBox) == 4 {
			box = geo.BBox{Min: geo.Point{X: u.BBox[0], Y: u.BBox[1]}, Max: geo.Point{X: u.BBox[2], Y: u.BBox[3]}}
		}
		if u.Class == "" && len(u.BBox) == 0 && len(u.Edges) > 0 {
			// Edge-only rule: touch just the listed endpoints' adjacency
			// (O(deg) per edge) instead of scanning every arc — a profile
			// of thousands of per-edge rules would otherwise make each
			// Apply O(rules·|E|).
			for _, e := range u.Edges {
				changedArcs += o.setArcMult(VertexID(e[0]), VertexID(e[1]), u.Factor)
				changedArcs += o.setArcMult(VertexID(e[1]), VertexID(e[0]), u.Factor)
			}
			continue
		}
		var edgeSet map[uint64]bool
		if len(u.Edges) > 0 {
			edgeSet = make(map[uint64]bool, len(u.Edges))
			for _, e := range u.Edges {
				edgeSet[edgeKey(VertexID(e[0]), VertexID(e[1]))] = true
			}
		}
		for v := VertexID(0); int(v) < g.NumVertices(); v++ {
			for a := g.adjStart[v]; a < g.adjStart[v+1]; a++ {
				if u.Class != "" && g.adjClass[a] != class {
					continue
				}
				if len(u.BBox) == 4 && !(box.Contains(g.pts[v]) && box.Contains(g.pts[g.adjTo[a]])) {
					continue
				}
				if edgeSet != nil && !edgeSet[edgeKey(v, g.adjTo[a])] {
					continue
				}
				if o.mult[a] != u.Factor {
					o.mult[a] = u.Factor
					changedArcs++
				}
			}
		}
	}
	o.epoch++
	o.freeze()
	return o.cur, o.epoch, changedArcs / 2, nil
}

// freeze makes the current snapshot from the multipliers: base cost times
// multiplier per arc, at the current epoch.
func (o *Overlay) freeze() {
	g := o.base
	costs := make([]float64, len(g.adjCost))
	for i := range costs {
		costs[i] = g.adjCost[i] * o.mult[i]
	}
	o.cur = g.reweighted(costs, o.epoch)
}

// setArcMult sets the multiplier of arc (u,v), returning 1 if it changed.
func (o *Overlay) setArcMult(u, v VertexID, factor float64) int {
	if a := o.base.ArcIndex(u, v); a >= 0 && o.mult[a] != factor {
		o.mult[a] = factor
		return 1
	}
	return 0
}

// edgeKey is a direction-independent key for an undirected edge.
func edgeKey(u, v VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// reweighted returns a snapshot of g with the given arc costs, sharing
// every other array but the landmark table: g's rows are distances in g's
// metric, so the snapshot builds its own. costs must be parallel to g's
// arc order.
func (g *Graph) reweighted(costs []float64, epoch uint64) *Graph {
	ng := *g
	ng.adjCost = costs
	ng.weightEpoch = epoch
	ng.lm = new(landmarkTable)
	return &ng
}

// WeightEpoch returns the overlay epoch this snapshot's costs belong to;
// 0 for a freshly built graph.
func (g *Graph) WeightEpoch() uint64 { return g.weightEpoch }

// The urpsm-traffic text format is line-oriented (FORMATS.md §6):
//
//	urpsm-traffic 1
//	# comment
//	at <t> scale <f> [class <name>] [bbox <minX> <minY> <maxX> <maxY>]
//	at <t> edge <u> <v> <f>
//	at <t> clear
//
// Lines sharing the same (non-decreasing) time t form one event. "clear"
// resets every multiplier to 1.

const trafficHeader = "urpsm-traffic 1"

// maxTrafficRules clamps how many rules a profile may carry; a congestion
// trace is a handful of scheduled changes, so anything near this limit is
// garbage (and a fuzzer should not be able to force huge allocations).
const maxTrafficRules = 1 << 16

// ReadTrafficProfile parses the urpsm-traffic text format. The profile is
// validated against g (vertex ranges, edge existence, factor bounds).
func ReadTrafficProfile(r io.Reader, g *Graph) (*TrafficProfile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	headerSeen := false
	p := &TrafficProfile{}
	rules := 0
	for sc.Scan() {
		lineNo++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if !headerSeen {
			if s != trafficHeader {
				return nil, fmt.Errorf("roadnet: bad traffic header %q", s)
			}
			headerSeen = true
			continue
		}
		rules++
		if rules > maxTrafficRules {
			return nil, fmt.Errorf("roadnet: traffic profile exceeds %d rules", maxTrafficRules)
		}
		f := strings.Fields(s)
		if len(f) < 3 || f[0] != "at" {
			return nil, fmt.Errorf("roadnet: traffic line %d: want \"at <t> ...\", got %q", lineNo, s)
		}
		at, err := strconv.ParseFloat(f[1], 64)
		if err != nil || math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return nil, fmt.Errorf("roadnet: traffic line %d: bad time %q", lineNo, f[1])
		}
		var up TrafficUpdate
		switch f[2] {
		case "scale":
			if len(f) < 4 {
				return nil, fmt.Errorf("roadnet: traffic line %d: scale needs a factor", lineNo)
			}
			up.Factor, err = strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("roadnet: traffic line %d: bad factor %q", lineNo, f[3])
			}
			rest := f[4:]
			for len(rest) > 0 {
				switch rest[0] {
				case "class":
					if len(rest) < 2 {
						return nil, fmt.Errorf("roadnet: traffic line %d: class needs a name", lineNo)
					}
					up.Class = rest[1]
					rest = rest[2:]
				case "bbox":
					if len(rest) < 5 {
						return nil, fmt.Errorf("roadnet: traffic line %d: bbox needs 4 values", lineNo)
					}
					up.BBox = make([]float64, 4)
					for i := 0; i < 4; i++ {
						up.BBox[i], err = strconv.ParseFloat(rest[1+i], 64)
						if err != nil {
							return nil, fmt.Errorf("roadnet: traffic line %d: bad bbox value %q", lineNo, rest[1+i])
						}
					}
					rest = rest[5:]
				default:
					return nil, fmt.Errorf("roadnet: traffic line %d: unknown selector %q", lineNo, rest[0])
				}
			}
		case "edge":
			if len(f) != 6 {
				return nil, fmt.Errorf("roadnet: traffic line %d: want \"at <t> edge <u> <v> <f>\"", lineNo)
			}
			u, err1 := strconv.ParseInt(f[3], 10, 32)
			v, err2 := strconv.ParseInt(f[4], 10, 32)
			fac, err3 := strconv.ParseFloat(f[5], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("roadnet: traffic line %d: bad edge rule %q", lineNo, s)
			}
			up.Factor = fac
			up.Edges = [][2]int64{{u, v}}
		case "clear":
			if len(f) != 3 {
				return nil, fmt.Errorf("roadnet: traffic line %d: clear takes no arguments", lineNo)
			}
			up.Factor = 1
		default:
			return nil, fmt.Errorf("roadnet: traffic line %d: unknown rule %q", lineNo, f[2])
		}
		n := len(p.Events)
		switch {
		case n > 0 && p.Events[n-1].At == at:
			p.Events[n-1].Updates = append(p.Events[n-1].Updates, up)
		case n > 0 && at < p.Events[n-1].At:
			return nil, fmt.Errorf("roadnet: traffic line %d: time %v before previous event %v", lineNo, at, p.Events[n-1].At)
		default:
			p.Events = append(p.Events, TrafficEvent{At: at, Updates: []TrafficUpdate{up}})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !headerSeen {
		return nil, io.ErrUnexpectedEOF
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteTrafficProfile serializes p in the text format; ReadTrafficProfile
// of the output reproduces p.
func WriteTrafficProfile(w io.Writer, p *TrafficProfile) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, trafficHeader)
	for _, e := range p.Events {
		for _, u := range e.Updates {
			if len(u.Edges) > 0 {
				for _, ed := range u.Edges {
					fmt.Fprintf(bw, "at %g edge %d %d %g\n", e.At, ed[0], ed[1], u.Factor)
				}
				continue
			}
			if u.Factor == 1 && u.Class == "" && len(u.BBox) == 0 {
				fmt.Fprintf(bw, "at %g clear\n", e.At)
				continue
			}
			fmt.Fprintf(bw, "at %g scale %g", e.At, u.Factor)
			if u.Class != "" {
				fmt.Fprintf(bw, " class %s", u.Class)
			}
			if len(u.BBox) == 4 {
				fmt.Fprintf(bw, " bbox %g %g %g %g", u.BBox[0], u.BBox[1], u.BBox[2], u.BBox[3])
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
