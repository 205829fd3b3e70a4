package epoch

import (
	"errors"
	"sync"
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
// Init picks one of two modes:
//
//   - Locked reads: one copy behind a read/write lock. Readers share it, a
//     commit excludes them for one apply.
//   - Adopting twins (snapshot reads asked for, over a copy-on-write index
//     whose fresh replica adopts it — core.Adopter): two handles on one
//     structure. Readers pin the published handle through the Manager and
//     never wait; a commit applies the window to the off-line handle,
//     publishes it, waits out the readers of the displaced one, and has
//     that one adopt the published contents. A window is applied, a Build
//     run, once.
//
// Twins are identical whenever no commit is in flight, a window never has
// to outlive its commit, and the layers keep no saved-window buffers. This
// file is the only caller of Manager.Publish and Manager.WaitDrained.
//
// beside is the one seam: the step a layer runs on state it keeps beside
// the copies (the Collection's slot table), once per Commit and per
// Rebuild. It runs under the write lock over one copy, and over twins in
// the gap the drain opens — after the displaced handle's readers have
// left, before it adopts — so readers of the new version that wait for the
// step go on as early as they can. The zero Cell is not usable; call Init.
type Cell struct {
	// mu serializes Commit and Rebuild. Over a single copy it is also
	// the readers' lock; over twins readers never touch it.
	mu      sync.RWMutex
	mgr     Manager
	standby *Version     // the off-line twin, written only under mu
	copies  []core.Index // one (locked reads) or two (twins), fixed at Init
	beside  func()
}

// Init builds the cell over idx: with snapshot, over idx and a fresh
// replica of it when that replica adopts idx, and over idx alone
// otherwise. beside may be nil. layer names the caller in the panics that
// refuse a non-empty index or replica.
func (c *Cell) Init(layer string, idx core.Index, snapshot bool, beside func()) {
	c.beside = beside
	if beside == nil {
		c.beside = func() {}
	}
	c.mgr.Init(&Version{Index: idx})
	c.copies = []core.Index{idx}
	if !snapshot {
		return
	}
	if idx.Size() != 0 {
		panic(layer + ": Options.Snapshot requires an initially empty index")
	}
	a, ok := idx.(core.Adopter)
	if !ok {
		return
	}
	twin := a.NewReplica()
	if twin == nil || twin.Size() != 0 {
		panic(layer + ": NewReplica must return a fresh, empty index")
	}
	if t, ok := twin.(core.Adopter); ok && t.Adopt(idx) {
		c.standby = &Version{Index: twin}
		c.copies = append(c.copies, twin)
	}
}

// Acquire returns the version to read, held against the writer until
// Release: pinned over twins (wait-free), read-locked over one copy.
// Callers defer the Release so a panicking query never wedges a commit.
func (c *Cell) Acquire() *Version {
	if len(c.copies) == 1 {
		c.mu.RLock()
		return c.mgr.Current()
	}
	return c.mgr.Pin()
}

// Release ends a read started by Acquire.
func (c *Cell) Release(v *Version) {
	if len(c.copies) == 1 {
		c.mu.RUnlock()
		return
	}
	c.mgr.Unpin(v)
}

// Commit advances the index by one netted window — a BatchDiff of (ins,
// del) — runs the beside step, and returns once no reader can still see
// the state before it. The slices may alias the committer's recycled
// scratch: a commit is done with them on return, and indexes do not retain
// batch slices (the core.Index contract). sp and clk thread the caller's
// flush span through the stages (apply over one copy; apply, publish,
// drain, replay over twins); a nil sp records nothing.
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.copies) == 1 {
		step(c.mgr.Current().Index, build, ins, del)
		c.beside()
		return sp.Stamp(obs.StageApply, clk)
	}
	next := c.standby
	step(next.Index, build, ins, del)
	clk = sp.Stamp(obs.StageApply, clk)
	prev := c.mgr.Publish(next)
	if sp != nil {
		sp.Epoch = next.epoch
	}
	clk = sp.Stamp(obs.StagePublish, clk)
	c.mgr.WaitDrained(prev)
	clk = sp.Stamp(obs.StageDrain, clk)
	// The displaced handle is ours now: it adopts the published contents,
	// so both agree again before the next window arrives.
	c.beside()
	if !prev.Index.(core.Adopter).Adopt(next.Index) {
		// The pair adopted at Init, and for a pair the answer never changes.
		panic("epoch: " + prev.Index.Name() + " stopped adopting its twin")
	}
	c.standby = prev
	return sp.Stamp(obs.StageReplay, clk)
}

// Epoch returns the published epoch: the number of commits and rebuilds
// so far over twins, always 0 over a single copy.
func (c *Cell) Epoch() uint64 { return c.mgr.Epoch() }

// RetireLag returns the published epochs whose displaced copy has not
// drained yet (see Manager.RetireLag); always 0 over a single copy.
func (c *Cell) RetireLag() uint64 { return c.mgr.RetireLag() }

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
		"Published epochs whose displaced version has not drained.",
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
