package collection

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// cell is the Collection's version cell: the one place readers are kept
// off the writer of its index, and the only code that knows how. Every
// read holds one RWMutex shared, from Acquire to Release; Init picks one
// of two modes from the index alone, and they differ in how long a commit
// holds it exclusively:
//
//   - Locked reads (every other index: the baselines, or a decorator that
//     hides the capability): one copy. A commit takes the write lock,
//     applies the window, runs the caller's table step and unlocks.
//   - Snapshot reads (over a copy-on-write index that pins read-only
//     views of itself — core.Versioned: the SPaC family and P-Orth, as
//     trees or sharded): one writer and the published view. The paper's
//     batch updates rebuild only the paths a batch reaches, so a commit
//     applies the window to the writer with no lock held — it copies what
//     it touches and the published view stays intact under its readers —
//     and pins a view of the result. Then it takes the write lock: the
//     drain, which waits out the reads in flight. Holding it, the commit
//     runs the table step and publishes the new view under a new epoch; it
//     unlocks and unpins the displaced view, which no reader can reach any
//     more. A window is applied, a Build run, once.
//
// A query therefore never waits on the index apply over views; one that
// arrives during a drain waits for it and for the table step. Between
// commits the published view is the writer's contents. What a window's
// apply copies off the published view displaces the originals, which only
// that view's readers can still reach; the drain ends those readers, so
// the unpin hands the originals, nodes and leaf blocks, to the writer's
// pool, and the next window copies into them (reclaim at unpin,
// internal/core handle.go). So steady-state commits allocate nothing: not
// the versions, not the views, not the copies (a large window's forked
// branches still start goroutines). The zero cell is not usable; call
// Init.
type cell struct {
	// wmu serializes Commit and Rebuild — the writer's updates, pins and
	// unpins — and guards spare.
	wmu sync.Mutex
	// mu is the readers' lock: held shared by every read, and exclusively
	// by a commit for the apply over one copy, for the table step and the
	// swap of cur over views.
	mu    sync.RWMutex
	cur   *version       // the published version, swapped under mu
	spare *version       // the version the next commit over views publishes
	idx   core.Index     // the writer: every commit applies to it
	ver   core.Versioned // idx when it pins views (snapshot reads), else nil; fixed at Init

	epoch atomic.Uint64 // the published epoch
	// draining is 1 while a commit waits for the write lock; waits and
	// waitNs count the reads that found a commit holding or waiting for it,
	// and the time they spent blocked.
	draining, waits, waitNs atomic.Uint64
}

// version is one publishable index — a pinned view, or the one copy — and
// the epoch at which it was published. A reader owns it shared from
// cell.Acquire to cell.Release.
type version struct {
	Index core.Index
	epoch uint64
}

// Epoch returns the epoch number at which this version was last
// published (0 for the initial version).
func (v *version) Epoch() uint64 { return v.epoch }

// Init builds the cell over idx, publishing a view of it when idx pins
// one and idx itself otherwise. A non-empty index panics: every stored
// point must have an owning ID.
func (c *cell) Init(idx core.Index) {
	if idx.Size() != 0 {
		panic("collection: the wrapped index must start empty")
	}
	c.idx = idx
	c.cur = &version{Index: idx}
	if v, ok := idx.(core.Versioned); ok {
		if view := v.Pin(); view != nil {
			c.ver, c.cur.Index, c.spare = v, view, new(version)
		}
	}
}

// Acquire read-locks the cell and returns the published version, held
// against the writer until Release. A read that finds a commit holding or
// waiting for the write lock is counted, with the time it blocks (Waits).
// Callers defer the Release so a panicking query never wedges a commit.
func (c *cell) Acquire() *version {
	if !c.mu.TryRLock() {
		start := time.Now()
		c.waits.Add(1)
		c.mu.RLock()
		c.waitNs.Add(uint64(time.Since(start)))
	}
	return c.cur
}

// Release ends a read started by Acquire.
func (c *cell) Release() { c.mu.RUnlock() }

// Commit advances the index by one netted window — a BatchDiff of (ins,
// del) — runs tableStep under the write lock, and returns once no reader
// can still see the state before it. The slices may alias the committer's
// recycled scratch: indexes do not retain batch slices (the core.Index
// contract). sp and clk thread the caller's flush span through the stages
// (apply over one copy; apply, drain, publish, replay — the unpin — over
// views); a nil sp records nothing.
func (c *cell) Commit(ins, del []geom.Point, tableStep func(), sp *obs.FlushSpan, clk time.Time) time.Time {
	return c.advance(false, ins, del, tableStep, sp, clk)
}

// Rebuild replaces the contents of the index with pts (Index.Build) under
// the same protocol as Commit: readers see the old contents and table or
// the new, never a copy mid-build.
func (c *cell) Rebuild(pts []geom.Point, tableStep func()) {
	c.advance(true, pts, nil, tableStep, nil, time.Time{})
}

// advance brings the index forward — a Build of ins, or a BatchDiff — and
// runs tableStep, in either mode.
func (c *cell) advance(build bool, ins, del []geom.Point, tableStep func(), sp *obs.FlushSpan, clk time.Time) time.Time {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.ver == nil {
		c.drain()
		defer c.mu.Unlock()
	}
	if build {
		c.idx.Build(ins)
	} else {
		c.idx.BatchDiff(ins, del)
	}
	if c.ver == nil {
		tableStep()
		return sp.Stamp(obs.StageApply, clk)
	}
	clk = sp.Stamp(obs.StageApply, clk)
	next, prev := c.spare, c.cur
	next.Index = c.ver.Pin()
	clk = c.publish(next, tableStep, sp, clk)
	// The displaced view has no reader left and no way to get one: unpinned,
	// it gives the writer back for reuse what this window displaced from
	// it.
	c.ver.Unpin(prev.Index)
	prev.Index = nil
	c.spare = prev
	return sp.Stamp(obs.StageReplay, clk)
}

// publish drains, then, under the write lock, runs tableStep and makes next
// the published version under a new epoch.
func (c *cell) publish(next *version, tableStep func(), sp *obs.FlushSpan, clk time.Time) time.Time {
	c.drain()
	defer c.mu.Unlock()
	clk = sp.Stamp(obs.StageDrain, clk)
	tableStep()
	next.epoch = c.epoch.Add(1)
	c.cur = next
	if sp != nil {
		sp.Epoch = next.epoch
	}
	return sp.Stamp(obs.StagePublish, clk)
}

// drain takes the write lock, which waits out the reads in flight;
// RetireLag shows the wait.
func (c *cell) drain() {
	c.draining.Store(1)
	c.mu.Lock()
	c.draining.Store(0)
}

// Epoch returns the published epoch: the number of commits and rebuilds
// so far over views, always 0 over a single copy.
func (c *cell) Epoch() uint64 { return c.epoch.Load() }

// RetireLag is 1 while a commit waits for the reads in flight to leave —
// for the write lock — and 0 otherwise, in either mode.
func (c *cell) RetireLag() uint64 { return c.draining.Load() }

// Waits returns the reads that found a commit holding or waiting for the
// write lock, and the nanoseconds they spent blocked.
func (c *cell) Waits() (n, ns uint64) { return c.waits.Load(), c.waitNs.Load() }

// Versions returns the number of live versions: 1 (one copy), or 2 over
// views — the writer and the published view, one copy-on-write structure.
func (c *cell) Versions() int {
	if c.ver != nil {
		return 2
	}
	return 1
}

// Copied is what the writer has copied on first touch because a view
// reached it (core.Versioned.Copied; zero under locked reads). It takes no
// lock.
func (c *cell) Copied() (nodes, bytes uint64) {
	if c.ver != nil {
		return c.ver.Copied()
	}
	return 0, 0
}

// Validate checks that the published view is the writer's contents — no
// commit has left them apart. The caller excludes Commit and Rebuild.
func (c *cell) Validate() error {
	if c.ver != nil && !c.ver.Current(c.cur.Index) {
		return errors.New("collection: the published view is not the index's contents")
	}
	return nil
}
