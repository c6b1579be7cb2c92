package serve

// Versioned JSON snapshots of the serving state, for crash recovery and
// warm restarts (FORMATS.md §5). A snapshot captures everything the
// server cannot rebuild from its inputs: the fleet's mid-flight routes,
// the event clock, the decision counters and the traffic overlay's arc
// factors. The road network itself is NOT part of the snapshot —
// restoring validates the saved state against the graph the server is
// started on. A server restores only from its WAL checkpoint (wal.go).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

// SnapshotFormat is the format discriminator of a snapshot file.
const SnapshotFormat = "urpsm-snapshot"

// SnapshotVersion is the current snapshot schema version.
const SnapshotVersion = 2

// maxSnapshotBytes bounds a snapshot file read; sized for fleets far
// beyond anything this repository runs.
const maxSnapshotBytes = 1 << 28 // 256 MB

// Snapshot is the persisted serving state. Every monotone counter the
// stats surface reports is included, so /metrics counters never move
// backwards across a warm restart. Epoch and TrafficFactors carry the
// live weight state: the overlay's multiplier of every arc not at 1
// (roadnet.Overlay.Factors), which roadnet.RestoreOverlay applies once
// at restore. Its size is bounded by the graph, however many traffic
// epochs led to it.
type Snapshot struct {
	Format          string              `json:"format"`
	Version         int                 `json:"version"`
	SimTime         float64             `json:"sim_time"`
	Epoch           uint64              `json:"epoch"`
	NextID          int32               `json:"next_id"`
	Accepted        int                 `json:"accepted"`
	Rejected        int                 `json:"rejected"`
	PenaltySum      float64             `json:"penalty_sum"`
	Batches         int                 `json:"batches"`
	MaxBatch        int                 `json:"max_batch"`
	LateAdmissions  int                 `json:"late_admissions"`
	Shed            int                 `json:"shed,omitempty"`
	Submitted       int                 `json:"submitted,omitempty"`
	Completions     int                 `json:"completions"`
	LateArrivals    int                 `json:"late_arrivals"`
	InfeasibleStops int                 `json:"infeasible_stops"`
	Workers         []core.WorkerState  `json:"workers"`
	TrafficFactors  []roadnet.ArcFactor `json:"traffic_factors,omitempty"`
	// WALSeq is set on WAL checkpoints: the log sequence number this
	// snapshot covers through. Recovery skips WAL records at or below it.
	WALSeq uint64 `json:"wal_lsn,omitempty"`
	// LastDecisions is set on WAL checkpoints: the final commit group's
	// decisions, retained so a client whose ack a crash swallowed can
	// still resolve its in-flight request via GET /v1/decisions/{id}.
	LastDecisions []Decision `json:"last_decisions,omitempty"`
}

// WriteSnapshot serializes sn as compact JSON with a trailing newline;
// the encoding is deterministic, so snapshots are byte-stable. Compact,
// because auto-checkpoints are written inside a flush.
func WriteSnapshot(w io.Writer, sn *Snapshot) error {
	data, err := json.Marshal(sn)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// SaveSnapshotFile writes a snapshot to path with full crash-safe
// discipline: temp file in the same directory, fsync the file, rename
// over the target, fsync the parent directory. A reader never observes a
// partial snapshot, and after SaveSnapshotFile returns the new content
// survives power loss — rename alone guarantees neither (the rename may
// land before the data, or be lost with the directory update).
func SaveSnapshotFile(path string, sn *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = WriteSnapshot(f, sn)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

// ReadSnapshot parses a snapshot, checking the format discriminator, the
// version and the graph-independent structural invariants. Vertex ranges,
// route feasibility and the traffic factors are checked later, against
// the graph, by Restore and roadnet.RestoreOverlay.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("serve: snapshot exceeds %d bytes", maxSnapshotBytes)
	}
	var sn Snapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		return nil, fmt.Errorf("serve: bad snapshot json: %w", err)
	}
	if sn.Format != SnapshotFormat {
		return nil, fmt.Errorf("serve: bad snapshot format %q (want %q)", sn.Format, SnapshotFormat)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", sn.Version, SnapshotVersion)
	}
	if math.IsNaN(sn.SimTime) || math.IsInf(sn.SimTime, 0) || sn.SimTime < 0 {
		return nil, fmt.Errorf("serve: bad snapshot sim_time %v", sn.SimTime)
	}
	if sn.Accepted < 0 || sn.Rejected < 0 || sn.Batches < 0 || sn.MaxBatch < 0 ||
		sn.LateAdmissions < 0 || sn.Completions < 0 || sn.LateArrivals < 0 ||
		sn.InfeasibleStops < 0 || sn.NextID < 0 || sn.Shed < 0 || sn.Submitted < 0 {
		return nil, fmt.Errorf("serve: negative snapshot counter")
	}
	if math.IsNaN(sn.PenaltySum) || math.IsInf(sn.PenaltySum, 0) || sn.PenaltySum < 0 {
		return nil, fmt.Errorf("serve: bad snapshot penalty_sum %v", sn.PenaltySum)
	}
	return &sn, nil
}

// Restore reconstructs the fleet from the snapshot, validating every
// route against a graph with numVertices vertices. Workers must form a
// dense ID range 0..n-1 (the fleet's indexing invariant); they may appear
// in any order.
func (sn *Snapshot) Restore(numVertices int) ([]*core.Worker, error) {
	workers := make([]*core.Worker, 0, len(sn.Workers))
	for i := range sn.Workers {
		w, err := sn.Workers[i].Worker(numVertices)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	for i, w := range workers {
		if int(w.ID) != i {
			return nil, fmt.Errorf("worker IDs are not the dense range 0..%d", len(workers)-1)
		}
	}
	return workers, nil
}
