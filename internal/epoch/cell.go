package epoch

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Cell is the version cell: the one place the library decides how readers
// are kept off the writer. A front-end (Store, Collection) holds a Cell
// over the state its queries read and never looks at the policy again — it
// acquires a version to read, and commits windows.
//
// Over one copy the Cell is a read/write lock: readers share it, a commit
// excludes them for the duration of one apply. Over two copies it is the
// left-right twin: readers pin the published copy through the Manager and
// never wait; a commit applies the window to the off-line copy, publishes
// it, waits out the readers of the displaced copy, and catches that copy
// up. Both copies are therefore identical whenever no commit is in flight,
// a window never has to outlive its commit, and the layers keep no
// saved-window buffers. This file is the only caller of Manager.Publish
// and Manager.WaitDrained.
//
// How the displaced copy catches up is the layer's: by default the window
// is applied to it too, and a layer whose copies can take their contents
// from one another (core.Adopter indexes) installs a CatchUp that does
// that instead, so the two copies are handles on one structure and the
// window is applied once. The hook runs after the drain, so it is also where
// a layer writes state kept beside the copies (the Collection's slot table).
//
// T is the state type, W the window type: apply advances one copy by one
// window, so it must be deterministic in (copy contents, window). The
// zero Cell is not usable; call Init.
type Cell[T, W any] struct {
	// mu serializes Commit and Rebuild. Over a single copy it is also
	// the readers' lock; over twins readers never touch it.
	mu      sync.RWMutex
	mgr     Manager[T]
	twin    bool        // two copies; fixed at Init
	standby *Version[T] // the off-line twin, written only under mu
	apply   func(T, W)
	catchUp func(behind, ahead T, w W) // nil: apply(behind, w)
}

// Init installs apply and the copies: one selects the lock path, two the
// twin path (the copies must start with identical contents).
func (c *Cell[T, W]) Init(apply func(T, W), copies ...T) {
	if len(copies) != 1 && len(copies) != 2 {
		panic("epoch: a Cell holds one copy (locked reads) or two (snapshot reads)")
	}
	c.apply = apply
	c.mgr.Init(NewVersion(copies[0]))
	if len(copies) == 2 {
		c.twin, c.standby = true, NewVersion(copies[1])
	}
}

// CatchUp replaces the second apply of a twin commit: once the displaced
// copy has drained, fn must leave behind — one window w short — equal to
// ahead, the copy just published, which readers are on and fn must not
// write. Call it once, after Init and before the first Commit.
func (c *Cell[T, W]) CatchUp(fn func(behind, ahead T, w W)) { c.catchUp = fn }

// Acquire returns the version to read, held against the writer until
// Release: pinned over twins (wait-free), read-locked over one copy.
// Callers defer the Release so a panicking query never wedges a commit.
func (c *Cell[T, W]) Acquire() *Version[T] {
	if !c.twin {
		c.mu.RLock()
		return c.mgr.Current()
	}
	return c.mgr.Pin()
}

// Release ends a read started by Acquire.
func (c *Cell[T, W]) Release(v *Version[T]) {
	if !c.twin {
		c.mu.RUnlock()
		return
	}
	c.mgr.Unpin(v)
}

// Commit advances every copy by window w and returns once no reader can
// still see the state before it. sp and clk thread the caller's flush
// span through the stages (apply over one copy; apply, publish, drain,
// replay over twins); a nil sp records nothing.
func (c *Cell[T, W]) Commit(w W, sp *obs.FlushSpan, clk time.Time) time.Time {
	return c.advance(c.apply, c.catchUp, w, sp, clk)
}

// Rebuild replaces the contents of every copy, under the same protocol as
// Commit: readers see the old contents or the new, never a copy mid-build.
// build runs on the first copy; follow then brings the displaced one level
// with it (the CatchUp contract, without a window), or, when nil, build
// runs on that copy too.
func (c *Cell[T, W]) Rebuild(build func(T), follow func(behind, ahead T)) {
	var none W
	var catchUp func(T, T, W)
	if follow != nil {
		catchUp = func(behind, ahead T, _ W) { follow(behind, ahead) }
	}
	c.advance(func(st T, _ W) { build(st) }, catchUp, none, nil, time.Time{})
}

func (c *Cell[T, W]) advance(step func(T, W), catchUp func(T, T, W), w W, sp *obs.FlushSpan, clk time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.twin {
		step(c.mgr.Current().Data, w)
		return sp.Stamp(obs.StageApply, clk)
	}
	step(c.standby.Data, w)
	clk = sp.Stamp(obs.StageApply, clk)
	prev := c.mgr.Publish(c.standby)
	if sp != nil {
		sp.Epoch = c.standby.epoch
	}
	clk = sp.Stamp(obs.StagePublish, clk)
	c.mgr.WaitDrained(prev)
	clk = sp.Stamp(obs.StageDrain, clk)
	// The displaced copy is ours now: catch it up so both copies agree
	// again before the next window arrives.
	if catchUp != nil {
		catchUp(prev.Data, c.standby.Data, w)
	} else {
		step(prev.Data, w)
	}
	c.standby = prev
	return sp.Stamp(obs.StageReplay, clk)
}

// Epoch returns the published epoch: the number of commits and rebuilds
// so far over twins, always 0 over a single copy.
func (c *Cell[T, W]) Epoch() uint64 { return c.mgr.Epoch() }

// RetireLag returns the published epochs whose displaced copy has not
// drained yet (see Manager.RetireLag); always 0 over a single copy.
func (c *Cell[T, W]) RetireLag() uint64 { return c.mgr.RetireLag() }

// Versions returns the number of live copies, 1 or 2.
func (c *Cell[T, W]) Versions() int {
	if c.twin {
		return 2
	}
	return 1
}

// Register exposes the epoch gauges under labels; a nil registry is a no-op.
func (c *Cell[T, W]) Register(r *obs.Registry, labels ...obs.Label) {
	r.GaugeFunc("psi_epoch",
		"Published snapshot epoch (0 in locked mode).",
		func() float64 { return float64(c.Epoch()) }, labels...)
	r.GaugeFunc("psi_epoch_retire_lag",
		"Published epochs whose displaced version has not drained.",
		func() float64 { return float64(c.RetireLag()) }, labels...)
}

// IndexCell is a Cell over a point index advanced by Diffs: what a Store
// holds. Init it with ApplyDiff.
type IndexCell = Cell[core.Index, Diff]

// Diff is one netted window over a point index: the batches of one
// BatchDiff. The slices may alias the committer's recycled scratch — a
// commit is done with its window on return, and core.Index
// implementations must not retain batch slices (the Index contract).
type Diff struct{ Ins, Del []geom.Point }

// ApplyDiff is an IndexCell's apply step.
func ApplyDiff(idx core.Index, d Diff) { idx.BatchDiff(d.Ins, d.Del) }

// AdoptedDiff is an IndexCell's CatchUp over twins that Copies reported
// shared.
func AdoptedDiff(behind, ahead core.Index, _ Diff) { Adopted(behind, ahead) }

// Copies returns the index copies a front-end's cell is built over: idx
// alone, or idx and the twin that snapshot (a constructor of fresh, empty,
// identically configured indexes; nil for locked reads) returns. shared
// says how the twins follow each other: true when the twin adopted idx
// (core.Adopter) — they are then handles on one structure and stay so
// through Adopted — false when each is a whole copy and everything is
// applied to both. This is where the read mode and the catch-up are
// chosen; nothing downstream tests either again.
func Copies(layer string, idx core.Index, snapshot func() core.Index) (copies []core.Index, shared bool) {
	if snapshot == nil {
		return []core.Index{idx}, false
	}
	if idx.Size() != 0 {
		panic(layer + ": Options.Snapshot requires an initially empty index")
	}
	twin := snapshot()
	if twin == nil || twin.Size() != 0 {
		panic(layer + ": Options.Snapshot must return a fresh, empty index")
	}
	a, ok := twin.(core.Adopter)
	return []core.Index{idx, twin}, ok && a.Adopt(idx)
}

// Adopted is the catch-up of twins that Copies reported shared: behind
// takes ahead's contents. The pair adopted once, so a refusal is a bug.
func Adopted(behind, ahead core.Index) {
	if !behind.(core.Adopter).Adopt(ahead) {
		panic("epoch: " + behind.Name() + " stopped adopting its twin")
	}
}
