package roadnet

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
)

func trafficTestGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := Generate(GenConfig{
		Rows: 12, Cols: 12, Spacing: 120, Jitter: 0.2, ArterialEvery: 4,
		MotorwayRing: true, RemoveFrac: 0.05, DetourMin: 1.02, DetourMax: 1.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOverlayApplySetsMultipliersRelativeToBase(t *testing.T) {
	g := trafficTestGraph(t)
	o := NewOverlay(g)
	if o.Epoch() != 0 || o.Graph() != g {
		t.Fatalf("fresh overlay: epoch=%d", o.Epoch())
	}

	g1, epoch, changed, err := o.Apply([]TrafficUpdate{{Factor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || g1.WeightEpoch() != 1 {
		t.Fatalf("epoch=%d snapshot epoch=%d", epoch, g1.WeightEpoch())
	}
	if changed != g.NumEdges() {
		t.Fatalf("changed %d edges, want all %d", changed, g.NumEdges())
	}
	for _, e := range g.Edges() {
		base, _ := g.EdgeCost(e.U, e.V)
		cur, _ := g1.EdgeCost(e.U, e.V)
		if math.Abs(cur-2*base) > 1e-12 {
			t.Fatalf("edge (%d,%d): cost %v want %v", e.U, e.V, cur, 2*base)
		}
	}

	// A second event SETS factors relative to base (congestion easing),
	// it does not compound.
	g2, _, _, err := o.Apply([]TrafficUpdate{{Factor: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		base, _ := g.EdgeCost(e.U, e.V)
		cur, _ := g2.EdgeCost(e.U, e.V)
		if math.Abs(cur-1.5*base) > 1e-12 {
			t.Fatalf("factors compounded: cost %v want %v", cur, 1.5*base)
		}
	}

	// Clear restores the base costs exactly; earlier snapshots are
	// untouched (immutability).
	g3, _, _, err := o.Apply([]TrafficUpdate{{Factor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		base, _ := g.EdgeCost(e.U, e.V)
		if cur, _ := g3.EdgeCost(e.U, e.V); cur != base {
			t.Fatalf("clear did not restore base cost")
		}
		if old, _ := g1.EdgeCost(e.U, e.V); math.Abs(old-2*base) > 1e-12 {
			t.Fatalf("earlier snapshot mutated")
		}
	}
}

// TestOverlayFactorsRoundTrip: RestoreOverlay of an overlay's Factors at
// its epoch reproduces the overlay — same epoch, same factors and
// bit-identical arc costs — after every Apply of a mixed sequence, the
// clear included.
func TestOverlayFactorsRoundTrip(t *testing.T) {
	g := trafficTestGraph(t)
	e := g.Edges()[7]
	o := NewOverlay(g)
	for i, ups := range [][]TrafficUpdate{
		{{Factor: 2.5, Class: "arterial"}},
		{{Factor: 1.75, Edges: [][2]int64{{int64(e.U), int64(e.V)}}}, {Factor: 3, BBox: []float64{0, 0, 600, 600}}},
		{{Factor: 1}},
		{{Factor: 1.3}, {Factor: 1, Class: "motorway"}},
	} {
		if _, _, _, err := o.Apply(ups); err != nil {
			t.Fatal(err)
		}
		factors := o.Factors()
		for k := 1; k < len(factors); k++ {
			if g.ArcIndex(factors[k-1].U, factors[k-1].V) >= g.ArcIndex(factors[k].U, factors[k].V) {
				t.Fatalf("epoch %d: factors not in arc order at %d", o.Epoch(), k)
			}
		}
		if i == 2 && len(factors) != 0 {
			t.Fatalf("clear left %d factors", len(factors))
		}
		r, err := RestoreOverlay(g, o.Epoch(), factors)
		if err != nil {
			t.Fatal(err)
		}
		if r.Epoch() != o.Epoch() || r.Graph().WeightEpoch() != o.Graph().WeightEpoch() || r.Graph() == g {
			t.Fatalf("restored epoch %d (graph %d), want %d", r.Epoch(), r.Graph().WeightEpoch(), o.Epoch())
		}
		got, want := r.Graph().ArcCosts(), o.Graph().ArcCosts()
		for a := range want {
			if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
				t.Fatalf("epoch %d arc %d: restored cost %v, want %v", o.Epoch(), a, got[a], want[a])
			}
		}
		if !slices.Equal(r.Factors(), factors) {
			t.Fatalf("epoch %d: restored factors differ", o.Epoch())
		}
	}
	if r, err := RestoreOverlay(g, 0, nil); err != nil || r.Graph() != g || r.Epoch() != 0 {
		t.Fatalf("epoch 0 restore: %v", err)
	}
}

// TestRestoreOverlayRejectsBadFactors: checkpoint factors are input from
// outside the program; each malformed kind is refused with an error.
func TestRestoreOverlayRejectsBadFactors(t *testing.T) {
	g := trafficTestGraph(t)
	e := g.Edges()[0]
	u, v := e.U, e.V
	nonEdge := VertexID(1)
	for g.ArcIndex(0, nonEdge) >= 0 {
		nonEdge++
	}
	nv := VertexID(g.NumVertices())
	for _, tc := range []struct {
		name    string
		epoch   uint64
		factors []ArcFactor
		want    string
	}{
		{"non-edge", 1, []ArcFactor{{0, nonEdge, 2}, {nonEdge, 0, 2}}, "names no edge"},
		{"vertex out of range", 1, []ArcFactor{{u, nv, 2}}, "names no edge"},
		{"first vertex out of range", 1, []ArcFactor{{nv, u, 2}}, "out of range"},
		{"negative vertex", 1, []ArcFactor{{-1, v, 2}}, "out of range"},
		{"nan factor", 1, []ArcFactor{{u, v, math.NaN()}, {v, u, math.NaN()}}, "outside [1,1000]"},
		{"factor below 1", 1, []ArcFactor{{u, v, 0.5}, {v, u, 0.5}}, "outside [1,1000]"},
		{"factor above max", 1, []ArcFactor{{u, v, MaxTrafficFactor * 2}, {v, u, MaxTrafficFactor * 2}}, "outside [1,1000]"},
		{"duplicate arc", 1, []ArcFactor{{u, v, 2}, {u, v, 2}, {v, u, 2}}, "listed twice"},
		{"out of arc order", 1, []ArcFactor{{v, u, 2}, {u, v, 2}}, "out of arc order"},
		{"factors at epoch 0", 0, []ArcFactor{{u, v, 2}, {v, u, 2}}, "at epoch 0"},
		{"asymmetric edge", 1, []ArcFactor{{u, v, 2}}, "its reverse"},
	} {
		if _, err := RestoreOverlay(g, tc.epoch, tc.factors); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestArcFactorJSON: the wire form is [u, v, factor] and anything else is
// refused at decode.
func TestArcFactorJSON(t *testing.T) {
	b, err := json.Marshal([]ArcFactor{{3, 17, 1.5}, {17, 3, 2}})
	if err != nil || string(b) != `[[3,17,1.5],[17,3,2]]` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	var back []ArcFactor
	if err := json.Unmarshal(b, &back); err != nil || !slices.Equal(back, []ArcFactor{{3, 17, 1.5}, {17, 3, 2}}) {
		t.Fatalf("unmarshal: %v %v", back, err)
	}
	for _, bad := range []string{`[3,17]`, `[3,17,1.5,2]`, `[3.5,17,2]`, `["3",17,2]`, `[3,17,"x"]`, `{"u":3}`, `[3,4294967296,2]`} {
		var f ArcFactor
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Errorf("%s decoded as %+v", bad, f)
		}
	}
}

func TestOverlaySelectors(t *testing.T) {
	g := trafficTestGraph(t)

	t.Run("class", func(t *testing.T) {
		o := NewOverlay(g)
		cur, _, changed, err := o.Apply([]TrafficUpdate{{Factor: 3, Class: "motorway"}})
		if err != nil {
			t.Fatal(err)
		}
		wantChanged := 0
		for _, e := range g.Edges() {
			base, _ := g.EdgeCost(e.U, e.V)
			got, _ := cur.EdgeCost(e.U, e.V)
			want := base
			if e.Class == geo.Motorway {
				want = 3 * base
				wantChanged++
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("edge (%d,%d) class %v: cost %v want %v", e.U, e.V, e.Class, got, want)
			}
		}
		if wantChanged == 0 {
			t.Fatal("test graph has no motorway edges")
		}
		if changed != wantChanged {
			t.Fatalf("changed=%d want %d", changed, wantChanged)
		}
	})

	t.Run("bbox", func(t *testing.T) {
		o := NewOverlay(g)
		b := g.Bounds()
		// Left half of the map.
		midX := (b.Min.X + b.Max.X) / 2
		box := []float64{b.Min.X, b.Min.Y, midX, b.Max.Y}
		cur, _, changed, err := o.Apply([]TrafficUpdate{{Factor: 2, BBox: box}})
		if err != nil {
			t.Fatal(err)
		}
		if changed == 0 || changed == g.NumEdges() {
			t.Fatalf("bbox matched %d of %d edges; want a strict subset", changed, g.NumEdges())
		}
		for _, e := range g.Edges() {
			in := g.Point(e.U).X <= midX && g.Point(e.V).X <= midX
			base, _ := g.EdgeCost(e.U, e.V)
			got, _ := cur.EdgeCost(e.U, e.V)
			want := base
			if in {
				want = 2 * base
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("edge (%d,%d) in=%v: cost %v want %v", e.U, e.V, in, got, want)
			}
		}
	})

	t.Run("edges", func(t *testing.T) {
		o := NewOverlay(g)
		e := g.Edges()[7]
		cur, _, changed, err := o.Apply([]TrafficUpdate{
			{Factor: 4, Edges: [][2]int64{{int64(e.V), int64(e.U)}}}, // reversed order matches too
		})
		if err != nil {
			t.Fatal(err)
		}
		if changed != 1 {
			t.Fatalf("changed=%d want 1", changed)
		}
		base, _ := g.EdgeCost(e.U, e.V)
		if got, _ := cur.EdgeCost(e.U, e.V); math.Abs(got-4*base) > 1e-12 {
			t.Fatalf("edge cost %v want %v", got, 4*base)
		}
		if got, _ := cur.EdgeCost(e.V, e.U); math.Abs(got-4*base) > 1e-12 {
			t.Fatalf("reverse arc not updated")
		}
		if f := o.Factors(); !slices.Equal(f, []ArcFactor{{e.U, e.V, 4}, {e.V, e.U, 4}}) {
			t.Fatalf("Factors=%v", f)
		}
	})
}

func TestTrafficUpdateValidate(t *testing.T) {
	g := trafficTestGraph(t)
	e := g.Edges()[0]
	bad := []TrafficUpdate{
		{Factor: 0.5},                                               // below 1: would break Euclidean lower bounds
		{Factor: math.NaN()},                                        // non-finite
		{Factor: MaxTrafficFactor + 1},                              // absurd
		{Factor: 2, Class: "cowpath"},                               // unknown class
		{Factor: 2, BBox: []float64{1, 2, 3}},                       // wrong arity
		{Factor: 2, BBox: []float64{5, 0, 0, 5}},                    // inverted
		{Factor: 2, BBox: []float64{0, 0, math.Inf(1), 5}},          // non-finite
		{Factor: 2, Edges: [][2]int64{{-1, 0}}},                     // out of range
		{Factor: 2, Edges: [][2]int64{{int64(e.U), int64(e.U)}}},    // self-loop: no such edge
		{Factor: 2, Edges: [][2]int64{{0, int64(g.NumVertices())}}}, // out of range
	}
	for i, u := range bad {
		if err := u.Validate(g); err == nil {
			t.Errorf("bad update %d (%+v) validated", i, u)
		}
	}
	if err := ValidateTrafficUpdates(g, nil); err == nil {
		t.Error("empty batch validated")
	}
	good := TrafficUpdate{Factor: 2, Class: "arterial", BBox: []float64{0, 0, 500, 500},
		Edges: [][2]int64{{int64(e.U), int64(e.V)}}}
	if err := good.Validate(g); err != nil {
		t.Errorf("good update rejected: %v", err)
	}
	// A failed Apply must not half-apply or advance the epoch.
	o := NewOverlay(g)
	if _, _, _, err := o.Apply([]TrafficUpdate{{Factor: 2}, {Factor: 0.5}}); err == nil {
		t.Fatal("bad batch applied")
	}
	if o.Epoch() != 0 || o.Graph() != g {
		t.Fatal("failed apply mutated the overlay")
	}
}

func TestReadTrafficProfile(t *testing.T) {
	g := trafficTestGraph(t)
	e := g.Edges()[3]
	src := "urpsm-traffic 1\n" +
		"# morning rush\n" +
		"at 600 scale 1.5\n" +
		"at 600 scale 2 class motorway\n" +
		"\n" +
		"at 900 scale 1.25 bbox 0 0 700 700\n" +
		"at 1200 edge " + itoa(int(e.U)) + " " + itoa(int(e.V)) + " 1.8\n" +
		"at 1800 clear\n"
	p, err := ReadTrafficProfile(strings.NewReader(src), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("events=%d want 4", len(p.Events))
	}
	if len(p.Events[0].Updates) != 2 || p.Events[0].At != 600 {
		t.Fatalf("event 0: %+v", p.Events[0])
	}
	if p.Events[3].Updates[0].Factor != 1 {
		t.Fatalf("clear parsed as %+v", p.Events[3].Updates[0])
	}

	// Round trip through the writer.
	var buf bytes.Buffer
	if err := WriteTrafficProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadTrafficProfile(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	if len(p2.Events) != len(p.Events) {
		t.Fatalf("round trip changed event count: %d vs %d", len(p2.Events), len(p.Events))
	}
	for i := range p.Events {
		if p2.Events[i].At != p.Events[i].At || len(p2.Events[i].Updates) != len(p.Events[i].Updates) {
			t.Fatalf("round trip changed event %d", i)
		}
	}
}

func TestReadTrafficProfileErrors(t *testing.T) {
	g := trafficTestGraph(t)
	cases := map[string]string{
		"empty":           "",
		"bad header":      "urpsm-traffic 2\nat 0 clear\n",
		"no at":           "urpsm-traffic 1\nscale 2\n",
		"bad time":        "urpsm-traffic 1\nat -5 scale 2\n",
		"nan time":        "urpsm-traffic 1\nat NaN scale 2\n",
		"time regression": "urpsm-traffic 1\nat 600 scale 2\nat 300 scale 1.5\n",
		"bad factor":      "urpsm-traffic 1\nat 0 scale 0.5\n",
		"bad class":       "urpsm-traffic 1\nat 0 scale 2 class cowpath\n",
		"short bbox":      "urpsm-traffic 1\nat 0 scale 2 bbox 1 2 3\n",
		"bad selector":    "urpsm-traffic 1\nat 0 scale 2 radius 5\n",
		"bad edge":        "urpsm-traffic 1\nat 0 edge 0 999999 2\n",
		"edge arity":      "urpsm-traffic 1\nat 0 edge 0 1\n",
		"clear args":      "urpsm-traffic 1\nat 0 clear now\n",
		"unknown rule":    "urpsm-traffic 1\nat 0 jam 2\n",
	}
	for name, src := range cases {
		if _, err := ReadTrafficProfile(strings.NewReader(src), g); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
