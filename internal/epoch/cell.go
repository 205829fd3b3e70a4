package epoch

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Cell is the version cell: the one place the library decides how readers
// are kept off the writer of a point index, and the only file that does.
// The front-end (the Collection) holds a Cell over the index its queries
// read, acquires a version to read and commits windows; it never tests
// which mode it is in.
//
// Init picks one of two modes, which differ in where a commit applies the
// window: under the readers' write lock, or before taking it, to a handle
// no reader holds (the package doc has the protocol):
//
//   - Locked reads: one copy. A commit takes the lock, applies, runs
//     beside and unlocks.
//   - Adopting twins (snapshot reads asked for, over a copy-on-write index
//     whose fresh replica adopts it — core.Adopter): two handles on one
//     structure. A commit applies the window to the off-line handle, takes
//     the lock, runs beside, publishes that handle, unlocks, and has the
//     displaced one adopt it. A window is applied, a Build run, once.
//
// Twins are identical whenever no commit is in flight, a window never has
// to outlive its commit, and the layers keep no saved-window buffers.
//
// beside is the one seam: the step a layer runs on state it keeps beside
// the copies (the Collection's slot table), once per Commit and per
// Rebuild, under the write lock in either mode. The zero Cell is not
// usable; call Init.
type Cell struct {
	// wmu serializes Commit and Rebuild, and guards standby.
	wmu sync.Mutex
	// mu is the readers' lock: held shared by every read, and exclusively
	// by a commit for the apply over one copy, for beside and the swap of
	// cur over twins.
	mu      sync.RWMutex
	cur     *Version     // the published version, swapped under mu
	standby *Version     // the off-line twin
	copies  []core.Index // one (locked reads) or two (twins), fixed at Init
	beside  func()

	epoch atomic.Uint64 // the published epoch
	// draining is 1 while a commit waits for the write lock; waits and
	// waitNs count the reads that found a commit holding or waiting for it,
	// and the time they spent blocked.
	draining, waits, waitNs atomic.Uint64
}

// Init builds the cell over idx: with snapshot, over idx and a fresh
// replica of it when that replica adopts idx, and over idx alone
// otherwise. beside may be nil. A non-empty index or replica panics.
func (c *Cell) Init(idx core.Index, snapshot bool, beside func()) {
	c.beside = beside
	if beside == nil {
		c.beside = func() {}
	}
	c.cur = &Version{Index: idx}
	c.copies = []core.Index{idx}
	if !snapshot {
		return
	}
	if idx.Size() != 0 {
		panic("epoch: snapshot reads require an initially empty index")
	}
	a, ok := idx.(core.Adopter)
	if !ok {
		return
	}
	twin := a.NewReplica()
	if twin == nil || twin.Size() != 0 {
		panic("epoch: NewReplica must return a fresh, empty index")
	}
	if t, ok := twin.(core.Adopter); ok && t.Adopt(idx) {
		c.standby = &Version{Index: twin}
		c.copies = append(c.copies, twin)
	}
}

// Acquire read-locks the cell and returns the published version, held
// against the writer until Release. A read that finds a commit holding or
// waiting for the write lock is counted, with the time it blocks (Waits).
// Callers defer the Release so a panicking query never wedges a commit.
func (c *Cell) Acquire() *Version {
	if !c.mu.TryRLock() {
		start := time.Now()
		c.waits.Add(1)
		c.mu.RLock()
		c.waitNs.Add(uint64(time.Since(start)))
	}
	return c.cur
}

// Release ends a read started by Acquire.
func (c *Cell) Release() { c.mu.RUnlock() }

// Commit advances the index by one netted window — a BatchDiff of (ins,
// del) — runs the beside step, and returns once no reader can still see
// the state before it. The slices may alias the committer's recycled
// scratch: a commit is done with them on return, and indexes do not retain
// batch slices (the core.Index contract). sp and clk thread the caller's
// flush span through the stages (apply over one copy; apply, drain,
// publish, replay over twins); a nil sp records nothing.
func (c *Cell) Commit(ins, del []geom.Point, sp *obs.FlushSpan, clk time.Time) time.Time {
	return c.advance(false, ins, del, sp, clk)
}

// Rebuild replaces the contents of the index with pts (Index.Build) under
// the same protocol as Commit: readers see the old contents or the new,
// never a copy mid-build.
func (c *Cell) Rebuild(pts []geom.Point) { c.advance(true, pts, nil, nil, time.Time{}) }

// step brings one copy forward: a Build of ins, or a BatchDiff.
func step(idx core.Index, build bool, ins, del []geom.Point) {
	if build {
		idx.Build(ins)
		return
	}
	idx.BatchDiff(ins, del)
}

func (c *Cell) advance(build bool, ins, del []geom.Point, sp *obs.FlushSpan, clk time.Time) time.Time {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.copies) == 1 {
		c.drain()
		defer c.mu.Unlock()
		step(c.cur.Index, build, ins, del)
		c.beside()
		return sp.Stamp(obs.StageApply, clk)
	}
	next, prev := c.standby, c.cur
	step(next.Index, build, ins, del)
	clk = sp.Stamp(obs.StageApply, clk)
	clk = c.publish(next, sp, clk)
	// The displaced handle has no reader left and no way to get one: it
	// adopts the published contents, so both agree again before the next
	// window arrives.
	if !prev.Index.(core.Adopter).Adopt(next.Index) {
		// The pair adopted at Init, and for a pair the answer never changes.
		panic("epoch: " + prev.Index.Name() + " stopped adopting its twin")
	}
	c.standby = prev
	return sp.Stamp(obs.StageReplay, clk)
}

// publish drains, then, under the write lock, runs beside and makes next
// the published version under a new epoch.
func (c *Cell) publish(next *Version, sp *obs.FlushSpan, clk time.Time) time.Time {
	c.drain()
	defer c.mu.Unlock()
	clk = sp.Stamp(obs.StageDrain, clk)
	c.beside()
	next.epoch = c.epoch.Add(1)
	c.cur = next
	if sp != nil {
		sp.Epoch = next.epoch
	}
	return sp.Stamp(obs.StagePublish, clk)
}

// drain takes the write lock, which waits out the reads in flight;
// RetireLag shows the wait.
func (c *Cell) drain() {
	c.draining.Store(1)
	c.mu.Lock()
	c.draining.Store(0)
}

// Epoch returns the published epoch: the number of commits and rebuilds
// so far over twins, always 0 over a single copy.
func (c *Cell) Epoch() uint64 { return c.epoch.Load() }

// RetireLag is 1 while a commit waits for the reads in flight to leave —
// for the write lock — and 0 otherwise, in either mode.
func (c *Cell) RetireLag() uint64 { return c.draining.Load() }

// Waits returns the reads that found a commit holding or waiting for the
// write lock, and the nanoseconds they spent blocked.
func (c *Cell) Waits() (n, ns uint64) { return c.waits.Load(), c.waitNs.Load() }

// Versions returns the number of live copies: 1, or 2 twins that are
// handles on one copy-on-write structure.
func (c *Cell) Versions() int { return len(c.copies) }

// Copied sums what the twins have copied on first touch
// (core.Adopter.Copied; zero under locked reads). It takes no lock.
func (c *Cell) Copied() (nodes, bytes uint64) {
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
func (c *Cell) Validate() error {
	if c.Versions() == 2 && !c.copies[0].(core.Adopter).Shares(c.copies[1]) {
		return errors.New("epoch: the index copies no longer share one structure")
	}
	return nil
}

// Register exposes the epoch gauges, and over twins the copy-on-write
// counters, under labels; a nil registry is a no-op.
func (c *Cell) Register(r *obs.Registry, labels ...obs.Label) {
	r.GaugeFunc("psi_epoch",
		"Published snapshot epoch (0 in locked mode).",
		func() float64 { return float64(c.Epoch()) }, labels...)
	r.GaugeFunc("psi_epoch_retire_lag",
		"1 while a commit waits for the reads in flight to leave, 0 otherwise.",
		func() float64 { return float64(c.RetireLag()) }, labels...)
	if c.Versions() == 2 {
		r.CounterFunc("psi_index_cow_nodes_total",
			"Index nodes copied on first touch because the snapshot copies share them.",
			func() uint64 { nodes, _ := c.Copied(); return nodes }, labels...)
		r.CounterFunc("psi_index_cow_bytes_total",
			"Bytes of index leaf entries copied on first touch because the snapshot copies share them.",
			func() uint64 { _, bytes := c.Copied(); return bytes }, labels...)
	}
}
