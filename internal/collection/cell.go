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
// of two modes, which differ in how long a commit holds it exclusively:
//
//   - Locked reads: one copy. A commit takes the write lock, applies the
//     window, runs the caller's table step and unlocks.
//   - Adopting twins (snapshot reads asked for, over a copy-on-write index
//     whose fresh replica adopts it — core.Adopter: the SPaC family and
//     P-Orth, as trees or sharded): two handles on one structure. The
//     paper's batch updates rebuild only the paths a batch reaches, so a
//     commit applies the window to the off-line handle with no lock held —
//     that handle copies what it touches and the published one stays
//     intact under its readers — then takes the write lock: the drain,
//     which waits out the reads in flight. Holding it, the commit runs the
//     table step and publishes the applied handle under a new epoch; it
//     unlocks and has the displaced handle, which no reader can reach any
//     more, adopt the published one. A window is applied, a Build run, once.
//
// A query therefore never waits on the index apply over twins; one that
// arrives during a drain waits for it and for the table step. Twins are
// identical whenever no commit is in flight, and both versions live as
// long as the cell, so steady-state commits allocate nothing. The zero
// cell is not usable; call Init.
type cell struct {
	// wmu serializes Commit and Rebuild, and guards standby.
	wmu sync.Mutex
	// mu is the readers' lock: held shared by every read, and exclusively
	// by a commit for the apply over one copy, for the table step and the
	// swap of cur over twins.
	mu      sync.RWMutex
	cur     *version     // the published version, swapped under mu
	standby *version     // the off-line twin
	copies  []core.Index // one (locked reads) or two (twins), fixed at Init

	epoch atomic.Uint64 // the published epoch
	// draining is 1 while a commit waits for the write lock; waits and
	// waitNs count the reads that found a commit holding or waiting for it,
	// and the time they spent blocked.
	draining, waits, waitNs atomic.Uint64
}

// version is one publishable index and the epoch at which it was last
// published. A reader owns it shared from cell.Acquire to cell.Release.
type version struct {
	Index core.Index
	epoch uint64
}

// Epoch returns the epoch number at which this version was last
// published (0 for the initial version).
func (v *version) Epoch() uint64 { return v.epoch }

// Init builds the cell over idx: with snapshot, over idx and a fresh
// replica of it when that replica adopts idx, and over idx alone
// otherwise. A non-empty index or replica panics.
func (c *cell) Init(idx core.Index, snapshot bool) {
	c.cur = &version{Index: idx}
	c.copies = []core.Index{idx}
	if !snapshot {
		return
	}
	if idx.Size() != 0 {
		panic("collection: snapshot reads require an initially empty index")
	}
	a, ok := idx.(core.Adopter)
	if !ok {
		return
	}
	twin := a.NewReplica()
	if twin == nil || twin.Size() != 0 {
		panic("collection: NewReplica must return a fresh, empty index")
	}
	if t, ok := twin.(core.Adopter); ok && t.Adopt(idx) {
		c.standby = &version{Index: twin}
		c.copies = append(c.copies, twin)
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
// (apply over one copy; apply, drain, publish, replay over twins); a nil sp
// records nothing.
func (c *cell) Commit(ins, del []geom.Point, tableStep func(), sp *obs.FlushSpan, clk time.Time) time.Time {
	return c.advance(false, ins, del, tableStep, sp, clk)
}

// Rebuild replaces the contents of the index with pts (Index.Build) under
// the same protocol as Commit: readers see the old contents and table or
// the new, never a copy mid-build.
func (c *cell) Rebuild(pts []geom.Point, tableStep func()) {
	c.advance(true, pts, nil, tableStep, nil, time.Time{})
}

// applyTo brings one copy forward: a Build of ins, or a BatchDiff.
func applyTo(idx core.Index, build bool, ins, del []geom.Point) {
	if build {
		idx.Build(ins)
		return
	}
	idx.BatchDiff(ins, del)
}

func (c *cell) advance(build bool, ins, del []geom.Point, tableStep func(), sp *obs.FlushSpan, clk time.Time) time.Time {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.copies) == 1 {
		c.drain()
		defer c.mu.Unlock()
		applyTo(c.cur.Index, build, ins, del)
		tableStep()
		return sp.Stamp(obs.StageApply, clk)
	}
	next, prev := c.standby, c.cur
	applyTo(next.Index, build, ins, del)
	clk = sp.Stamp(obs.StageApply, clk)
	clk = c.publish(next, tableStep, sp, clk)
	// The displaced handle has no reader left and no way to get one: it
	// adopts the published contents, so both agree again before the next
	// window arrives.
	if !prev.Index.(core.Adopter).Adopt(next.Index) {
		// The pair adopted at Init, and for a pair the answer never changes.
		panic("collection: " + prev.Index.Name() + " stopped adopting its twin")
	}
	c.standby = prev
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
// so far over twins, always 0 over a single copy.
func (c *cell) Epoch() uint64 { return c.epoch.Load() }

// RetireLag is 1 while a commit waits for the reads in flight to leave —
// for the write lock — and 0 otherwise, in either mode.
func (c *cell) RetireLag() uint64 { return c.draining.Load() }

// Waits returns the reads that found a commit holding or waiting for the
// write lock, and the nanoseconds they spent blocked.
func (c *cell) Waits() (n, ns uint64) { return c.waits.Load(), c.waitNs.Load() }

// Versions returns the number of live copies: 1, or 2 twins that are
// handles on one copy-on-write structure.
func (c *cell) Versions() int { return len(c.copies) }

// Copied sums what the twins have copied on first touch
// (core.Adopter.Copied; zero under locked reads). It takes no lock.
func (c *cell) Copied() (nodes, bytes uint64) {
	if c.Versions() == 2 {
		for _, idx := range c.copies {
			n, b := idx.(core.Adopter).Copied()
			nodes, bytes = nodes+n, bytes+b
		}
	}
	return nodes, bytes
}

// Validate checks that twins still share — no second whole structure has
// come into being. The caller excludes Commit and Rebuild.
func (c *cell) Validate() error {
	if c.Versions() == 2 && !c.copies[0].(core.Adopter).Shares(c.copies[1]) {
		return errors.New("collection: the index copies no longer share one structure")
	}
	return nil
}
