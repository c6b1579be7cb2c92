package serve

// Fuzzing for the two untrusted-input decoders: snapshot files (a WAL
// checkpoint, read at restart) and /v1/requests bodies (read from the
// network). Both must never panic and must only hand back state that
// passes validation.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/roadnet"
)

func FuzzReadSnapshot(f *testing.F) {
	if seed, err := os.ReadFile(filepath.Join("testdata", "snapshot.json")); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2}`))
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2, "workers": [{"id": 0, "capacity": 1, "route": {"loc": 0, "stops": [], "arr": []}}]}`))
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2, "epoch": 3, "traffic_factors": [[0, 1, 1.5], [1, 0, 1.5]]}`))
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2, "epoch": 1, "traffic_factors": [[0, 63, 2], [63, 0, 2]]}`))
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2, "traffic_factors": [[0, 1, 2], [1, 0, 2]]}`))
	f.Add([]byte(`{"format": "urpsm-snapshot", "version": 2, "epoch": 7}`))
	f.Add([]byte(`{`))
	// Vertex IDs in a checkpoint come from outside the program: decoded
	// factors are restored onto one fixed small graph, which may refuse
	// them but must not panic.
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := roadnet.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and restore without panicking;
		// Restore may reject it, but a restored fleet must be dense.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sn); err != nil {
			t.Fatalf("decoded snapshot failed to encode: %v", err)
		}
		if o, err := roadnet.RestoreOverlay(g, sn.Epoch, sn.TrafficFactors); err == nil {
			if o.Epoch() != sn.Epoch || o.Graph().WeightEpoch() != sn.Epoch {
				t.Fatalf("restored overlay at epoch %d/%d, want %d", o.Epoch(), o.Graph().WeightEpoch(), sn.Epoch)
			}
		}
		workers, err := sn.Restore(1024)
		if err != nil {
			return
		}
		for i, w := range workers {
			if int(w.ID) != i {
				t.Fatalf("Restore returned non-dense worker IDs: %d at %d", w.ID, i)
			}
			if w.Capacity < 1 {
				t.Fatalf("Restore returned capacity %d", w.Capacity)
			}
		}
	})
}

func FuzzRequestBody(f *testing.F) {
	f.Add([]byte(`{"origin": 3, "dest": 9, "release": 10, "deadline": 500, "penalty": 100, "capacity": 1}`))
	f.Add([]byte(`{"id": 7, "origin": 0, "dest": 1, "deadline": 1e9}`))
	f.Add([]byte(`{"origin": -1}`))
	f.Add([]byte(`nonsense`))
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := roadnet.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	nv := int64(g.NumVertices())
	f.Fuzz(func(t *testing.T, data []byte) {
		var body Request
		if err := json.Unmarshal(data, &body); err != nil {
			return
		}
		req, err := body.CoreRequest(g, 1, 0)
		if err != nil {
			return
		}
		// Accepted requests must satisfy the core invariants.
		if err := req.Validate(); err != nil {
			t.Fatalf("CoreRequest accepted an invalid request: %v", err)
		}
		if int64(req.Origin) >= nv || int64(req.Dest) >= nv || req.Origin < 0 || req.Dest < 0 {
			t.Fatalf("CoreRequest accepted out-of-range vertices: %d, %d", req.Origin, req.Dest)
		}
	})
}
