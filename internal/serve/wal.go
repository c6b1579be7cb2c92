package serve

// WAL integration: loading a WAL directory at startup, replaying the log
// tail through the live decide path, and taking checkpoints that
// truncate the log. The framing and record codecs live in internal/wal;
// this file owns the recovery semantics (DESIGN.md §13):
//
//   - The commit group (TypeBatch + its shed records + its
//     admission/decision pairs) is the atomic unit. Decisions and shed
//     verdicts are only acknowledged after the group's fsync, so an
//     incomplete trailing group is discarded whole — none of its
//     decisions can have been observed.
//   - Replay runs admissions through the same decideLocked path as live
//     traffic; the logged decisions are not applied but *checked*, so a
//     divergence (corrupt log, changed config, different graph) surfaces
//     as a hard, diagnosable error instead of silent state drift.
//   - Shed records are the exception: a shed verdict depends on queue
//     *timing* (how full the admission queue was), which the log does not
//     reconstruct, so sheds are applied verbatim — with the one
//     re-checkable invariant (the stamped event clock) still bit-checked.
//   - A checkpoint is a serve snapshot carrying wal_lsn; recovery skips
//     records at or below it, which makes a crash between the checkpoint
//     rename and the segment rotation harmless.
//   - Every boot ends checkpointed: after NewServer returns, the state is
//     durably snapshotted and the segment is empty.

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/wal"
)

// ErrWALDisabled is returned by WAL-only operations (Checkpoint) on a
// server running without a WAL.
var ErrWALDisabled = errors.New("serve: wal disabled")

// loadWALDir reads a WAL directory: the checkpoint snapshot (nil when
// absent), the decoded segment records, the LSN the post-recovery
// segment starts at, and how many torn tail bytes were discarded.
func loadWALDir(dir string) (sn *Snapshot, recs []wal.Record, nextLSN uint64, torn int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve: wal dir: %w", err)
	}
	ckpt := filepath.Join(dir, wal.CheckpointName)
	if f, ferr := os.Open(ckpt); ferr == nil {
		sn, err = ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("serve: wal checkpoint %s: %w", ckpt, err)
		}
	} else if !errors.Is(ferr, fs.ErrNotExist) {
		return nil, nil, 0, 0, ferr
	}
	nextLSN = 1
	if sn != nil {
		nextLSN = sn.WALSeq + 1
	}
	seg := filepath.Join(dir, wal.SegmentName)
	if data, ferr := os.ReadFile(seg); ferr == nil {
		start, rs, clean, derr := wal.DecodeSegment(data)
		if derr != nil {
			return nil, nil, 0, 0, fmt.Errorf("serve: wal segment %s: %w", seg, derr)
		}
		if start > nextLSN {
			return nil, nil, 0, 0, fmt.Errorf(
				"serve: wal segment starts at lsn %d but the checkpoint covers only lsn %d — checkpoint lost or regressed",
				start, nextLSN-1)
		}
		recs, torn = rs, len(data)-clean
		for _, r := range rs {
			if r.LSN >= nextLSN {
				nextLSN = r.LSN + 1
			}
		}
	} else if !errors.Is(ferr, fs.ErrNotExist) {
		return nil, nil, 0, 0, ferr
	}
	return sn, recs, nextLSN, torn, nil
}

// replayWAL applies the log tail: records at or below afterLSN are
// already covered by the checkpoint and skipped. Runs single-threaded
// before the event loop starts, so no locks are held.
func (s *Server) replayWAL(recs []wal.Record, afterLSN uint64) error {
	i := 0
	for i < len(recs) {
		r := recs[i]
		if r.LSN <= afterLSN {
			// Covered by the checkpoint. Commit groups are synced and
			// checkpointed atomically, so a checkpoint boundary can only fall
			// between groups; one that split a group would surface below as a
			// pair record at top level.
			i++
			continue
		}
		switch r.Type {
		case wal.TypeCheckpoint:
			i++
		case wal.TypeTraffic:
			if err := s.replayTraffic(r); err != nil {
				return err
			}
			s.walRecovered++
			i++
		case wal.TypeBatch:
			pairs, sheds, err := wal.DecodeBatch(r.Body)
			if err != nil {
				return fmt.Errorf("lsn %d: %w", r.LSN, err)
			}
			size := 1 + sheds + 2*pairs
			if i+size > len(recs) {
				// Incomplete trailing commit group: none of its decisions or
				// shed verdicts can have been acknowledged (the ack happens
				// only after the group's fsync), so the whole group is
				// discarded.
				return nil
			}
			if err := s.replayGroup(recs[i+1:i+size], sheds); err != nil {
				return err
			}
			s.submitted += pairs + sheds
			s.walRecovered += size
			i += size
		default:
			return fmt.Errorf("lsn %d: record type %d outside a commit group", r.LSN, r.Type)
		}
	}
	return nil
}

// replayGroup replays one commit group: the leading sheds shed records
// are applied verbatim (queue timing is not reconstructible from the
// log), then the admissions are re-decided and checked bit-exactly
// against the logged decisions.
func (s *Server) replayGroup(group []wal.Record, sheds int) error {
	pairs := group[sheds:]
	if len(pairs) > 0 {
		s.batches++
		if len(pairs)/2 > s.maxBatch {
			s.maxBatch = len(pairs) / 2
		}
	}
	s.lastGroup = s.lastGroup[:0]
	for k := 0; k < sheds; k++ {
		r := group[k]
		if r.Type != wal.TypeShed {
			return fmt.Errorf("lsn %d: commit group declares %d shed records, got record type %d",
				r.LSN, sheds, r.Type)
		}
		sh, err := wal.DecodeShed(r.Body)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", r.LSN, err)
		}
		if math.Float64bits(sh.SimTime) != math.Float64bits(s.simTime) {
			return fmt.Errorf("lsn %d: shed record stamped at event time %x but the replay clock is %x — "+
				"log corrupt or server configuration changed",
				r.LSN, math.Float64bits(sh.SimTime), math.Float64bits(s.simTime))
		}
		if math.IsNaN(sh.Penalty) || math.IsInf(sh.Penalty, 0) || sh.Penalty < 0 {
			return fmt.Errorf("lsn %d: bad shed penalty %v", r.LSN, sh.Penalty)
		}
		if sh.ID >= s.nextID && sh.ID < math.MaxInt32 {
			s.nextID = sh.ID + 1
		}
		s.shed++
		s.penaltySum += sh.Penalty
		d := Decision{
			ID:           sh.ID,
			Worker:       -1,
			SimTime:      sh.SimTime,
			Batch:        s.batches,
			Shed:         true,
			RetryAfterMs: retryAfterMs,
		}
		s.decided[d.ID] = d
		s.lastGroup = append(s.lastGroup, d.ID)
	}
	for k := 0; k+1 < len(pairs); k += 2 {
		ar, dr := pairs[k], pairs[k+1]
		if ar.Type != wal.TypeAdmission || dr.Type != wal.TypeDecision {
			return fmt.Errorf("lsn %d: commit group wants admission/decision pairs, got record types %d/%d",
				ar.LSN, ar.Type, dr.Type)
		}
		a, err := wal.DecodeAdmission(ar.Body)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", ar.LSN, err)
		}
		want, err := wal.DecodeDecision(dr.Body)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", dr.LSN, err)
		}
		nv := int64(s.cfg.Graph.NumVertices())
		if a.Origin < 0 || a.Origin >= nv || a.Dest < 0 || a.Dest >= nv {
			return fmt.Errorf("lsn %d: admission vertices (%d,%d) out of range [0,%d) — log from a different network?",
				ar.LSN, a.Origin, a.Dest, nv)
		}
		req := &core.Request{
			ID:       core.RequestID(a.ID),
			Origin:   roadnet.VertexID(a.Origin),
			Dest:     roadnet.VertexID(a.Dest),
			Release:  a.Release,
			Deadline: a.Deadline,
			Penalty:  a.Penalty,
			Capacity: int(a.Capacity),
		}
		if err := req.Validate(); err != nil {
			return fmt.Errorf("lsn %d: bad admission: %w", ar.LSN, err)
		}
		if a.ID >= s.nextID && a.ID < math.MaxInt32 {
			s.nextID = a.ID + 1
		}
		d := s.decideLocked(req)
		if d.ID != want.ID || d.Accepted != want.Accepted || d.Worker != want.Worker ||
			math.Float64bits(d.Delta) != math.Float64bits(want.Delta) ||
			math.Float64bits(d.SimTime) != math.Float64bits(want.SimTime) {
			return fmt.Errorf("lsn %d: replay diverged from logged decision for request %d: "+
				"replay {accepted:%v worker:%d delta:%x sim:%x} vs log {accepted:%v worker:%d delta:%x sim:%x} — "+
				"log corrupt or server configuration changed",
				dr.LSN, want.ID,
				d.Accepted, d.Worker, math.Float64bits(d.Delta), math.Float64bits(d.SimTime),
				want.Accepted, want.Worker, math.Float64bits(want.Delta), math.Float64bits(want.SimTime))
		}
		s.decided[d.ID] = d
		s.lastGroup = append(s.lastGroup, d.ID)
	}
	return nil
}

// replayTraffic re-applies one logged traffic epoch advance and checks
// that it reproduces the logged epoch.
func (s *Server) replayTraffic(r wal.Record) error {
	tr, err := wal.DecodeTraffic(r.Body)
	if err != nil {
		return fmt.Errorf("lsn %d: %w", r.LSN, err)
	}
	if tr.At < s.simTime {
		return fmt.Errorf("lsn %d: traffic time %g behind event clock %g", r.LSN, tr.At, s.simTime)
	}
	res, err := s.traffic.Apply(tr.At, tr.Updates)
	if err != nil {
		return fmt.Errorf("lsn %d: traffic replay: %w", r.LSN, err)
	}
	if res.Epoch != tr.Epoch {
		return fmt.Errorf("lsn %d: traffic replay produced epoch %d, log says %d", r.LSN, res.Epoch, tr.Epoch)
	}
	s.simTime = tr.At
	s.simTimeBits.Store(math.Float64bits(tr.At))
	return nil
}

// startWAL writes the startup checkpoint and opens a fresh segment,
// establishing the at-rest invariant of every boot: state durably
// snapshotted, log empty.
func (s *Server) startWAL(nextLSN uint64) error {
	if nextLSN == 0 {
		nextLSN = 1
	}
	sn := s.snapshotLocked()
	sn.WALSeq = nextLSN - 1
	sn.LastDecisions = s.lastDecisions()
	if err := SaveSnapshotFile(filepath.Join(s.cfg.WALDir, wal.CheckpointName), sn); err != nil {
		return err
	}
	lg, err := wal.Create(filepath.Join(s.cfg.WALDir, wal.SegmentName), nextLSN)
	if err != nil {
		return err
	}
	s.wal = lg
	s.walCheckpoints++
	return nil
}

// lastDecisions materializes the final commit group's decisions in
// admission order — the ambiguity window a checkpoint must keep alive
// for clients whose ack a crash swallowed.
func (s *Server) lastDecisions() []Decision {
	if len(s.lastGroup) == 0 {
		return nil
	}
	out := make([]Decision, 0, len(s.lastGroup))
	for _, id := range s.lastGroup {
		if d, ok := s.decided[id]; ok {
			out = append(out, d)
		}
	}
	return out
}

// checkpointLocked makes the current state durable and truncates the
// log: the checkpoint record is appended and synced (pinning the covered
// LSN), the snapshot is written with full fsync discipline, then the
// segment rotates. A crash between any two of those steps is safe —
// recovery skips records at or below the snapshot's wal_lsn, and an
// unrotated segment is just a longer skipped prefix. Caller holds smu.
func (s *Server) checkpointLocked() (uint64, error) {
	lsn := s.wal.Append(wal.TypeCheckpoint, nil)
	if err := s.wal.Sync(); err != nil {
		return 0, err
	}
	sn := s.snapshotLocked()
	sn.WALSeq = lsn
	sn.LastDecisions = s.lastDecisions()
	if err := SaveSnapshotFile(filepath.Join(s.cfg.WALDir, wal.CheckpointName), sn); err != nil {
		return 0, err
	}
	if err := s.wal.Rotate(lsn + 1); err != nil {
		return 0, err
	}
	// Shrink the decided window to the final commit group; everything
	// older is covered by the checkpoint and can no longer be an un-acked
	// in-flight request.
	clear(s.decided)
	for _, d := range sn.LastDecisions {
		s.decided[d.ID] = d
	}
	s.walCheckpoints++
	return lsn, nil
}

// CheckpointResult is the response of POST /v1/checkpoint.
type CheckpointResult struct {
	// LSN is the log sequence number the checkpoint covers through.
	LSN uint64 `json:"lsn"`
	// Checkpoints is the lifetime checkpoint count (startup included).
	Checkpoints uint64 `json:"checkpoints"`
}

// Checkpoint forces a durable snapshot checkpoint and log truncation.
func (s *Server) Checkpoint() (CheckpointResult, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.wal == nil {
		return CheckpointResult{}, ErrWALDisabled
	}
	lsn, err := s.checkpointLocked()
	if err != nil {
		return CheckpointResult{}, err
	}
	return CheckpointResult{LSN: lsn, Checkpoints: s.walCheckpoints}, nil
}

// DecisionFor reports the retained decision for a request ID, if it is
// still inside the decided window (every decision since the last
// checkpoint, plus the final commit group before it). It resolves the
// crashed-ack ambiguity: a client that never heard back for an in-flight
// request asks here after the server restarts — found means the decision
// was durable before the crash, not found means the request never
// committed and is safe to resend. Always empty when the WAL is
// disabled.
func (s *Server) DecisionFor(id int32) (Decision, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	d, ok := s.decided[id]
	return d, ok
}
