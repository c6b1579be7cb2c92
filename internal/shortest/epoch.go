package shortest

// Epoch-aware distance oracles. A roadnet.Overlay produces a new immutable
// weight snapshot per traffic update; this file makes the oracle stack
// follow it:
//
//   - Versioned fronts the tier chosen at start (Choose, Build) and keeps
//     that tier for its life: an epoch advance customizes a CCH over its
//     fixed skeleton, or rebuilds any other tier from scratch, before
//     Advance returns. Advance holds the write lock while it does, so a
//     query racing it waits and NEVER sees stale weights, and every answer
//     comes from the one tier — which is what keeps replay equivalence
//     independent of when traffic arrives.
//
//   - Cached, built directly over a Versioned front, watches its epoch
//     and flushes itself when the epoch advances, so no cached distance
//     from an earlier epoch can leak into a plan.
//
// The single-epoch (static) case is the existing behavior: the epoch
// never advances, the watch branch never fires, the built tier always
// answers — decisions are bit-identical to the pre-epoch stack.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/roadnet"
)

// Versioned is the epoch-aware oracle front. Dist is safe for any number
// of concurrent callers (the tier is wrapped in Locked when it is
// stateful); Advance may run concurrently with queries, which wait for it.
type Versioned struct {
	epoch atomic.Uint64 // current weight epoch (lock-free for cache watchers)
	kind  AutoKind      // the tier, fixed for the front's life
	// cchSkel is the metric-independent CCH skeleton when the tier is a
	// CCH. Epoch advances then re-derive shortcut weights over this fixed
	// skeleton instead of contracting from scratch. Snapshots share the
	// base topology, so one skeleton serves every epoch.
	cchSkel *CCHSkeleton

	mu    sync.RWMutex
	built Oracle // the tier on the current snapshot (concurrency-safe)

	rebuilds       atomic.Uint64
	customizations atomic.Uint64
	lastRebuildNs  atomic.Int64
}

// AdoptVersioned wraps an already-built tier (e.g. from cliutil.BuildOracle
// or Build) as the epoch-0 tier of a front that keeps it. kind must name
// base's tier: it says whether the tier needs a lock and what Advance
// rebuilds.
func AdoptVersioned(g *roadnet.Graph, base Oracle, kind AutoKind) *Versioned {
	v := &Versioned{kind: kind, built: lockIfStateful(base, kind)}
	if c, ok := base.(*CCH); ok {
		v.cchSkel = c.Skeleton()
	}
	v.epoch.Store(g.WeightEpoch())
	return v
}

// Locked serializes access to a non-thread-safe Oracle (BiDijkstra and the
// CCH reuse per-instance query state across queries). Hub labels and
// distance matrices are read-only and do not need it.
type Locked struct {
	mu    sync.Mutex
	inner Oracle
}

// NewLocked wraps inner with a mutex.
func NewLocked(inner Oracle) *Locked { return &Locked{inner: inner} }

// Dist implements Oracle under the lock.
func (l *Locked) Dist(s, t roadnet.VertexID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Dist(s, t)
}

// lockIfStateful wraps non-hub tiers in a mutex: hub labels are immutable
// after construction, the other tiers reuse per-instance query state.
func lockIfStateful(o Oracle, kind AutoKind) Oracle {
	if kind == AutoHub {
		return o
	}
	if _, ok := o.(*Locked); ok {
		return o
	}
	return NewLocked(o)
}

// Epoch returns the weight epoch the front currently answers for.
func (v *Versioned) Epoch() uint64 { return v.epoch.Load() }

// Rebuilds returns how many epoch advances have re-derived the tier.
func (v *Versioned) Rebuilds() uint64 { return v.rebuilds.Load() }

// Customizations returns how many of those rebuilds took the CCH
// customize fast path (re-deriving shortcut weights over the fixed
// skeleton) rather than preprocessing from scratch.
func (v *Versioned) Customizations() uint64 { return v.customizations.Load() }

// LastRebuild returns the duration of the most recent rebuild (0 before
// the first).
func (v *Versioned) LastRebuild() time.Duration {
	return time.Duration(v.lastRebuildNs.Load())
}

// ResolvedKind names the tier answering queries: the adopted one, in
// every epoch.
func (v *Versioned) ResolvedKind() AutoKind { return v.kind }

// CurrentTier returns the tier currently answering queries, unwrapped from
// its concurrency shim. Where ManyToManyFor has a filler for it (hub) the
// arrays that reads are immutable once built. The tier answers for the
// epoch current at call time; callers that must pin an epoch (serve's
// flush does) serialize against Advance themselves.
func (v *Versioned) CurrentTier() (Oracle, AutoKind) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	o := v.built
	if l, ok := o.(*Locked); ok {
		o = l.inner
	}
	return o, v.kind
}

// Dist implements Oracle on the current epoch's weights. The lock is held
// across the inner query so a concurrent Advance can never hand the call
// a tier from a superseded epoch; it allocates nothing.
func (v *Versioned) Dist(s, t roadnet.VertexID) float64 {
	v.mu.RLock()
	d := v.built.Dist(s, t)
	v.mu.RUnlock()
	return d
}

// Advance switches the front to a new weight snapshot and returns once its
// tier answers on it. A CCH tier is customized over the captured skeleton:
// snapshots from one Overlay share topology (and so arc indexing), so
// re-deriving shortcut weights replaces a from-scratch contraction —
// milliseconds instead of seconds, which is the point of the CCH tier
// (DESIGN.md §12). Any other tier is rebuilt as the same kind. The write
// lock is held throughout, so queries arriving meanwhile wait and are
// answered on the new weights.
func (v *Versioned) Advance(g *roadnet.Graph, epoch uint64) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.epoch.Store(epoch)
	var base Oracle
	if v.cchSkel != nil {
		base = v.cchSkel.Customize(g.ArcCosts())
		v.customizations.Add(1)
	} else {
		base = Build(v.kind, g)
	}
	v.built = lockIfStateful(base, v.kind)
	v.rebuilds.Add(1)
	v.lastRebuildNs.Store(time.Since(start).Nanoseconds())
}
