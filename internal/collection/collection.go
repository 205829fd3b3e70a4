// Package collection implements psi.Collection, a concurrent ID-keyed
// moving-object layer over any core.Index, and the library's one
// concurrent front-end. The paper's indexes (and the Sharded layer built
// on them) are batch-synchronous and operate on anonymous point
// multisets; every serving scenario — fleet tracking, geofencing, game
// worlds — needs many writers and *identity*: "object X moved from p0 to
// p1", which is exactly the paper's BatchDiff applied per tracked object.
// A Collection owns one point per live ID and turns each Set into the
// minimal diff:
//
//	Set(id, p1) on an object at p0  →  BatchDiff{ins: p1, del: p0}
//
// Mutations go through an ID-keyed coalescing window (window.go): Set and
// Remove calls from any number of goroutines add to it, netted as they
// arrive by last-write-wins per ID — an object moved five times in one
// window costs the index one delete and one insert, and a Set followed by
// Remove in the same window costs nothing. Identity makes this netting
// exact: no order-aware insert/delete matching of anonymous points is
// needed. The window is pointer-free — an ID byte arena, one fixed-size
// record per ID and an open-addressed index over the records — and copies
// each ID it is handed, so a Set keeps nothing of its caller's and, warm,
// allocates nothing. Enqueuers add under a short pending lock, the Set
// that brings the window to MaxBatch ops flushes it, and an optional
// background goroutine flushes every FlushInterval. A flush swaps the
// window out for the spare one, commits it, and clears it and hands it
// back at the next swap: two windows, double-buffered. The window's order
// is the order adds take the pending lock, which is consistent with every
// goroutine's program order; flushes are serialized and each takes the
// whole window, so the applied state is always a prefix of the enqueue
// history.
//
// Consistency: the geometric index, the forward table (ID → point), and
// the reverse multimap (point → IDs) all advance together at the flush
// boundary. The two tables are one dense slot table (table.go): flat
// point arrays and one append-only byte arena of IDs, found through
// open-addressed slot indexes — a few dozen pointer-free bytes per object
// rather than two Go maps, and nothing for the collector to mark per
// object. An ID a query or a checkpoint hands out is a view into that
// arena, valid for as long as it is held. Queries
// (NearbyIDs, WithinIDs) run the geometric query and resolve every hit
// through the table as of the same window — they can never observe an
// index point without its owner or vice versa. How readers are kept off
// the flush writer is the version cell's job (cell.go), and nothing else
// here asks it how: every query holds the cell's read lock, and the table
// is read under it. The index decides the mode: over a copy-on-write
// index (core.Versioned: the SPaC family and P-Orth, and a Sharded of
// either) the index is versioned — one writer and a pinned read-only view
// of it — the window is applied to the writer outside the lock, and the
// write lock covers only the publish of a view of the result, so a query
// never waits on the index apply; over any other index a commit holds the
// write lock across the apply.
// The table stays single: each commit hands the cell its own table step —
// a window's applyTable, or a Load's swap to the table it filled — which
// the cell runs under its write lock, and a query that arrives meanwhile
// waits for that step (ARCHITECTURE.md "Epochs & snapshot reads"). Get is
// the exception either way: it reads the caller's own pending ops
// (read-your-writes) in the pending window, then in the window being
// committed until every reader sees it, so Get(id) after Set(id, p)
// returns p even before the flush makes p visible to geometric queries.
//
// Committed state has two more ways in, both writer-side and both beside
// the pending window rather than through it: CommitWindow applies a
// window that is already netted (a replicated one) through the commit
// body Flush uses, and Load replaces index and table by bulk construction
// (recovery, a follower's bootstrap).
//
// Composition: the inner index may be a raw tree (psid's stack: the
// tree's batch update runs each flush in parallel) or a shard.Sharded
// (each flush fans out across shards in parallel); both are single-writer
// indexes, and the Collection's version cell is the one place readers are
// kept off the writer.
package collection

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wal"
)

// DefaultMaxBatch is the coalescing threshold used when Options.MaxBatch
// is unset. It matches parallel.DefaultGrain, the size below which the
// indexes' batch operations stop forking.
const DefaultMaxBatch = 1024

// Options tunes a Collection. The zero value is usable: DefaultMaxBatch
// coalescing, no background flusher.
type Options struct {
	// MaxBatch is the pending-op count that triggers a synchronous flush
	// by the enqueuing goroutine (built-in backpressure: the caller that
	// fills the window pays for applying it). <= 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// FlushInterval, when positive, starts a background goroutine that
	// flushes every interval, bounding how far the queried view lags
	// behind enqueues under light write traffic. Stop it with Close.
	FlushInterval time.Duration
	// Obs, when set, registers the Collection's metrics (flush counters,
	// flush duration histogram, epoch gauges, labeled layer="collection")
	// and records a flush-pipeline span per flush into the registry's
	// trace ring. Recording is atomics into preallocated storage — the
	// zero-alloc flush guarantee holds with a live registry. Leave nil to
	// pay nothing.
	Obs *obs.Registry
}

// Stats is a snapshot of a Collection's lifetime counters. It is
// assembled from atomics and the pending lock only — never the writer
// lock — so sampling it during a large flush does not block.
type Stats struct {
	Flushes   uint64 // batches applied to the index
	Inserted  uint64 // objects that entered the index (first Set)
	Moved     uint64 // objects relocated (Set on a live ID, position changed)
	Removed   uint64 // objects deleted from the index
	Cancelled uint64 // enqueued ops superseded in-window by a later op on the same ID
	// JournalErrors counts failed journal-hook calls (windows that
	// committed in memory but could not be confirmed durable). Zero
	// when no hook is installed; any nonzero value means durability is
	// compromised until the WAL is repaired.
	JournalErrors uint64
	Pending       int    // ops enqueued but not yet flushed
	Objects       int    // live objects in the committed (published) state
	Epoch         uint64 // published snapshot epoch (0 in locked mode)
	Versions      int    // live state versions: 2 in snapshot mode, 1 locked
	RetireLag     uint64 // 1 while a commit waits for the reads in flight to leave
	// TableWaits counts reads that found a commit holding or waiting for
	// the readers' lock — its drain and table step, and under locked reads
	// its apply too — and TableWaitNs the time they spent blocked.
	TableWaits, TableWaitNs uint64
	// CowNodes and CowBytes are what the two snapshot versions, handles on
	// one copy-on-write index, have copied on first touch so far — index
	// nodes, and bytes of leaf entries with them: a window should copy the
	// paths it touches, not the tree. Zero with one version.
	CowNodes, CowBytes uint64
	// TableMappedBytes is what the committed slot table maps outside the Go
	// heap at the last commit — its pointer-free arrays, which the
	// runtime's heap statistics do not include; 0 in builds that keep them
	// on the heap (race builds, and systems other than unix).
	TableMappedBytes uint64
	// TableIDBytes is the size of the committed slot table's ID arena at the
	// last commit — one heap block holding every live ID, the removed IDs
	// its next compaction drops and room to append — and TableIDDeadBytes
	// the removed IDs' share of it.
	TableIDBytes, TableIDDeadBytes uint64
	// PendingBytes is what the two pending windows hold on the heap — the
	// one enqueues add to and the one being committed or kept spare: their
	// records, ID bytes and indexes, at the capacity they have grown to.
	PendingBytes uint64
}

// Entry is one resolved query hit: a live object and its indexed
// position. ID is an immutable view into the slot table's ID arena, not a
// copy: it stays valid however the Collection changes afterwards, and
// while it is held it keeps the arena it points into alive — one arena
// generation, about every ID the table held at the time.
type Entry struct {
	ID    string
	Point geom.Point
}

// Collection tracks one point per ID over an inner core.Index. Create
// one with New; the zero value is not usable. All methods are safe for
// concurrent use by any number of goroutines.
type Collection struct {
	name string
	dims int

	// wins are the two pending windows (window.go). pend guards pending, the
	// one enqueues add to, and committing, the one a Flush swapped out, until
	// the commit publishes it: Get reads both, the newer first. It is held
	// only for an add, those lookups, the swap and the handback, never while
	// a window is applied.
	wins       [2]window
	pend       sync.Mutex
	pending    *window
	committing *window
	maxBatch   int

	// flushMu serializes everything that writes committed state: Flush,
	// CommitWindow, Load, and the sections of SetJournal, Checkpoint and
	// Validate. spare is the window that is neither pending nor committing,
	// empty: handed to the enqueuers at the next swap, and CommitWindow's
	// scratch meanwhile. span is the flush span's persistent scratch, which
	// keeps recording allocation-free; trace and flushDur are nil without
	// Options.Obs.
	flushMu  sync.Mutex
	spare    *window
	span     obs.FlushSpan
	trace    *obs.FlushTrace
	flushDur *obs.Hist

	flushes, rawOps, applied, cancelled atomic.Uint64

	// stop and done are the interval flusher's channels (nil without
	// Options.FlushInterval): New starts it, Close stops it.
	stop, done chan struct{}
	closeOnce  sync.Once

	// cell owns the committed index — every copy of it — and how queries
	// are kept off the flush writer; plan is the commit body's scratch
	// (guarded by the flush lock). queryPool recycles per-query
	// hit-resolution scratch across concurrent readers.
	cell      cell
	plan      plan
	queryPool sync.Pool

	// tab is the committed slot table — one, in either read mode. Readers
	// touch it only under the cell's read lock, and a commit's table step
	// writes it only under the write lock. It is a heap object of its own so
	// that the cleanup New registers can free its arrays without holding
	// the Collection.
	tab *table

	// journal is the durability commit hook (SetJournal), called under
	// the flush lock with every committed netted window before it is
	// applied. journalErrs counts hook failures (the hook itself keeps
	// the first error sticky; see wal.Log).
	journal     func(seq uint64, ops []wal.Op) error
	journalErrs atomic.Uint64

	inserted atomic.Uint64
	moved    atomic.Uint64
	removed  atomic.Uint64
	// slots, freeSlots, mapped, idBytes and idDead mirror the committed
	// table's slot count (live plus free), its free share, the bytes mapped
	// behind its arrays and its ID arena's size and dead bytes at the last
	// commit, for the gauges: like Stats, they never take a lock.
	slots, freeSlots, mapped, idBytes, idDead atomic.Int64
}

// plan is a window's commit scratch, recycled and grown to the window
// high-water mark. at and ins and del are planned from the window against
// the committed table: at[i] is the slot its i-th record's ID owns (0 when
// it is not live), ins and del the index diff. Only commits write the table
// and a window holds an ID once, so what planDiff resolved still holds when
// applyTable gets there. ops is the window spelled for the journal hook,
// filled only when one is installed.
type plan struct {
	at       []uint32
	ins, del []geom.Point
	ops      []wal.Op
}

// queryScratch is one query's resolution state: the raw geometric hits
// and, per multi-owner point, the slot its next hit resolves to (never
// touched for single-owner points).
type queryScratch struct {
	pts    []geom.Point
	cursor map[geom.Point]uint32
}

// New wraps idx in a Collection. The Collection takes ownership of idx:
// the caller must not touch it directly afterwards (in particular, the
// index must start empty — every stored point must have an owning ID).
// If opts.FlushInterval is positive the background flusher starts
// immediately; pair New with Close to stop it.
func New(idx core.Index, opts Options) *Collection {
	c := &Collection{
		name:     fmt.Sprintf("Collection(%s)", idx.Name()),
		dims:     idx.Dims(),
		maxBatch: opts.MaxBatch,
	}
	c.pending, c.spare = &c.wins[0], &c.wins[1]
	tab := newTable(c.dims, 0)
	c.tab = &tab
	if arraysMapped {
		// Close unmaps nothing, because a closed Collection stays usable:
		// the table's arrays go when the Collection does. Heap arrays need
		// no cleanup, the collector frees them with the table.
		runtime.AddCleanup(c, (*table).release, c.tab)
	}
	c.noteSlots()
	if c.maxBatch <= 0 {
		c.maxBatch = DefaultMaxBatch
	}
	c.queryPool.New = func() any { return new(queryScratch) }
	c.cell.Init(idx)
	layer := obs.Label{Key: "layer", Value: "collection"}
	opts.Obs.GaugeFunc("psi_epoch",
		"Published snapshot epoch (0 in locked mode).",
		func() float64 { return float64(c.cell.Epoch()) }, layer)
	opts.Obs.GaugeFunc("psi_epoch_retire_lag",
		"1 while a commit waits for the reads in flight to leave, 0 otherwise.",
		func() float64 { return float64(c.cell.RetireLag()) }, layer)
	if c.cell.Versions() == 2 {
		opts.Obs.CounterFunc("psi_index_cow_nodes_total",
			"Index nodes copied on first touch because a snapshot view shares them.",
			func() uint64 { nodes, _ := c.cell.Copied(); return nodes }, layer)
		opts.Obs.CounterFunc("psi_index_cow_bytes_total",
			"Bytes of index leaf points copied on first touch because a snapshot view shares them.",
			func() uint64 { _, bytes := c.cell.Copied(); return bytes }, layer)
	}
	opts.Obs.CounterFunc("psi_collection_table_wait_total",
		"Reads that waited for a commit's drain and table step (under locked reads, its apply too).",
		func() uint64 { n, _ := c.cell.Waits(); return n }, layer)
	opts.Obs.CounterFunc("psi_collection_table_wait_ns_total",
		"Nanoseconds reads spent waiting for a commit.",
		func() uint64 { _, ns := c.cell.Waits(); return ns }, layer)
	opts.Obs.GaugeFunc("psi_objects",
		"Live objects in the committed (published) state.",
		func() float64 { return float64(c.Stats().Objects) }, layer)
	opts.Obs.GaugeFunc("psi_collection_slots",
		"Slots of the committed object table: live objects plus free slots awaiting reuse.",
		func() float64 { return float64(c.slots.Load()) }, layer)
	opts.Obs.GaugeFunc("psi_collection_free_slots",
		"Free slots of the committed object table (its high-water mark less the live objects).",
		func() float64 { return float64(c.freeSlots.Load()) }, layer)
	opts.Obs.GaugeFunc("psi_collection_table_mapped_bytes",
		"Bytes of the committed object table mapped outside the Go heap (0 where the build keeps it on the heap).",
		func() float64 { return float64(c.mapped.Load()) }, layer)
	opts.Obs.GaugeFunc("psi_collection_table_id_bytes",
		"Bytes of the committed object table's ID arena on the heap: live IDs, removed ones awaiting compaction and room to append.",
		func() float64 { return float64(c.idBytes.Load()) }, layer)
	opts.Obs.GaugeFunc("psi_collection_table_id_dead_bytes",
		"Bytes of the committed object table's ID arena held by removed IDs until its next compaction.",
		func() float64 { return float64(c.idDead.Load()) }, layer)
	opts.Obs.GaugeFunc("psi_collection_pending_bytes",
		"Bytes of heap the two pending windows hold: their records, ID bytes and indexes, at capacity.",
		func() float64 { return float64(c.pendingBytes()) }, layer)
	opts.Obs.CounterFunc("psi_flush_total",
		"Flush windows applied to the index.", c.flushes.Load, layer)
	opts.Obs.CounterFunc("psi_flush_ops_raw_total",
		"Mutations entering flush windows before netting.", c.rawOps.Load, layer)
	opts.Obs.CounterFunc("psi_flush_ops_netted_total",
		"Index mutations surviving netting (applied inserts plus deletes).", c.applied.Load, layer)
	opts.Obs.CounterFunc("psi_flush_ops_cancelled_total",
		"Ops netted out of their flush window before reaching the index.", c.cancelled.Load, layer)
	c.flushDur = opts.Obs.Histogram("psi_flush_duration_ns",
		"Flush wall time in nanoseconds, summed over pipeline stages.", layer)
	c.trace = opts.Obs.FlushTrace()
	if opts.FlushInterval > 0 {
		c.stop, c.done = make(chan struct{}), make(chan struct{})
		go c.flusher(opts.FlushInterval)
	}
	return c
}

// flusher is the interval flush loop: it bounds how long an op stays
// pending under light traffic.
func (c *Collection) flusher(d time.Duration) {
	defer close(c.done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Flush()
		case <-c.stop:
			return
		}
	}
}

// Close stops the background flusher (if any) and applies all pending ops
// as a final flush (journaled like any other window when a hook is
// installed), exactly once however many goroutines call it. The order is
// the contract: the ticker goroutine has fully exited before the final
// flush, and no call returns before both are done. The Collection remains
// usable afterwards — only the periodic flushing ends.
func (c *Collection) Close() {
	c.closeOnce.Do(func() {
		if c.stop != nil {
			close(c.stop)
			<-c.done
		}
		c.Flush()
	})
}

// SetJournal installs (or, with nil, removes) the durability commit
// hook: every subsequent window calls fn under the flush lock with the
// committed netted window — at most one op per ID — before the window
// is applied or published. seq is 0 for a window Flush took off the
// pending ops (the journal assigns the next sequence) and the caller's
// sequence for a CommitWindow; wal.Log.AppendWindowAt is the intended
// hook. The slice is reused across windows and must not be retained,
// and the IDs of a flushed window are views into the window's ID arena,
// valid only during the call: a hook that keeps one copies it
// (AppendWindowAt encodes them, and the replication hub copies that
// encoding). Load journals nothing. Hook errors are counted in
// Stats.JournalErrors; see commit for why they do not abort the commit.
func (c *Collection) SetJournal(fn func(seq uint64, ops []wal.Op) error) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.journal = fn
}

// Checkpoint runs fn while the flush pipeline is quiescent: no window
// can commit (or be journaled) until fn returns. fn receives the
// committed object count and an iterator over the committed table —
// exactly the fold of every journaled window — which is what a
// WAL snapshot must capture for its seq to line up with the log
// (internal/service pairs Checkpoint with wal.Log.WriteSnapshotAt). fn
// must not call back into the Collection (Flush, Set-triggered
// flushes, and Close all take the same lock) and must not retain the
// iterator past its return; the IDs it yields are immutable views that
// stay valid (see Entry). Pending (unflushed, unjournaled) ops are
// deliberately excluded.
func (c *Collection) Checkpoint(fn func(objects int, entries iter.Seq2[string, geom.Point])) {
	// The flush lock excludes every writer of the table.
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	fn(c.tab.live, c.tab.all())
}

// Name labels the Collection after its inner index.
func (c *Collection) Name() string { return c.name }

// Dims returns the dimensionality of the inner index.
func (c *Collection) Dims() int { return c.dims }

// Set enqueues a move: id is (re)located to p. The relocation becomes
// visible to geometric queries at the flush that applies it, netted with
// any other pending ops on the same ID; Get(id) sees it immediately. Set
// copies id, so a caller may reuse the bytes behind it. Set panics if p is
// outside the stored range (see mustStore).
func (c *Collection) Set(id string, p geom.Point) {
	c.mustStore(p)
	c.enqueue(id, p, false)
}

// StoredRange returns the box every point a dims-dimensional Collection
// stores lies in, whatever its index: int32 coordinates (geom.Packable),
// and no Z in 2-D. The slot table keeps exactly that.
func StoredRange(dims int) (b geom.Box) {
	for d := range dims {
		b.Lo[d], b.Hi[d] = math.MinInt32, math.MaxInt32
	}
	return b
}

// mustStore panics unless p is in StoredRange. The table would truncate
// any other point, so one is a programmer error, as it is in the trees; a
// caller taking points from outside the program checks them first (psid's
// SET, recovery and replication do).
func (c *Collection) mustStore(p geom.Point) {
	if r := StoredRange(c.dims); !r.Contains(p, geom.MaxDims) {
		panic(fmt.Sprintf("collection: point %v outside the stored range %v", p, r))
	}
}

// Remove enqueues the removal of id, which it copies, as Set does.
// Removing an absent ID is a no-op when its window flushes.
func (c *Collection) Remove(id string) { c.enqueue(id, geom.Point{}, true) }

// enqueue adds one op to the pending window, which copies id's bytes: the
// caller keeps id. The ID is hashed before the pending lock is taken, and
// the window carries the hash to the commit.
func (c *Collection) enqueue(id string, p geom.Point, del bool) {
	h := hashID(id)
	c.pend.Lock()
	c.pending.add(id, h, p, del)
	full := c.pending.ops >= c.maxBatch
	c.pend.Unlock()
	if full {
		c.Flush() // the caller that fills the window pays for applying it
	}
}

// Get returns id's position. It observes the caller's latest enqueued op
// for id even before a flush (read-your-writes): the pending window is
// consulted first, the window being committed second, the committed table
// last. A committing window stops being consulted only after it is
// visible to every reader, so a Get that misses both windows is
// guaranteed to see a committed state at least as new as every op it
// held.
func (c *Collection) Get(id string) (geom.Point, bool) {
	h := hashID(id)
	c.pend.Lock()
	r := c.pending.find(id, h)
	if r == nil && c.committing != nil {
		r = c.committing.find(id, h)
	}
	if r != nil {
		p, live := r.point(), !r.del
		c.pend.Unlock()
		return p, live
	}
	c.pend.Unlock()
	c.cell.Acquire()
	p, live := c.tab.get(id, h)
	c.cell.Release()
	return p, live
}

// Len flushes pending ops and returns the number of live objects, so the
// answer reflects every enqueue that happened before the call.
func (c *Collection) Len() int {
	c.Flush()
	c.cell.Acquire()
	defer c.cell.Release()
	return c.tab.live
}

// Epoch returns the snapshot epoch of the currently published version —
// it advances by exactly one per committed window — or 0 in locked mode.
// The fuzz harness uses it to correlate concurrent pinned reads with the
// flush history.
func (c *Collection) Epoch() uint64 { return c.cell.Epoch() }

// Flush applies the pending window — every pending op, netted by
// last-write-wins per ID — to the index as one BatchDiff, and advances the
// object table in the same commit. It returns the number of index
// mutations applied (inserts + deletes). Flush is a synchronization
// barrier: on return, every op enqueued before the call is visible to
// geometric queries. The window is swapped out under the pending lock, so
// concurrent flushes and enqueues never double-apply or drop an op.
func (c *Collection) Flush() int {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.pend.Lock()
	w := c.pending
	if w.ops == 0 {
		c.pend.Unlock()
		return 0
	}
	c.pending, c.committing, c.spare = c.spare, w, nil
	c.pend.Unlock()

	sp := c.begin()
	applied, _ := c.commit(0, w, nil, sp) // a hook failure is counted; see commit
	// Stop Get consulting the window only now that every reader sees it: a
	// Get that misses the pending window then reads a committed state that
	// already includes every op of this one.
	c.pend.Lock()
	c.committing = nil
	c.pend.Unlock()
	c.finish(sp, w.ops, applied, w.ops-len(w.recs))
	w.reset()
	c.spare = w
	return applied
}

// begin opens a window's span (nil without a registry); the flush lock
// is held.
func (c *Collection) begin() *obs.FlushSpan {
	if c.trace == nil {
		return nil
	}
	c.span = obs.StartFlush("collection")
	return &c.span
}

// finish accounts one window — raw ops in, index mutations applied, ops
// netting cancelled — in the counters and, with a registry, the span.
func (c *Collection) finish(sp *obs.FlushSpan, raw, applied, cancelled int) {
	c.flushes.Add(1)
	c.rawOps.Add(uint64(raw))
	c.applied.Add(uint64(applied))
	c.cancelled.Add(uint64(cancelled))
	if sp != nil {
		sp.RawOps, sp.NettedOps, sp.Cancelled = raw, applied, cancelled
		c.flushDur.Record(sp.Dur())
		c.trace.Record(*sp)
	}
}

// CommitWindow applies one window that is already netted — at most one
// op per ID, the invariant of a WAL record and of a replication frame —
// under sequence seq: the journal hook is called with seq, and its error
// is returned. It is Flush from the swap on (same flush lock,
// same commit body, same counters and spans); the pending window is
// neither consulted nor flushed, so a follower's state advances by
// exactly the leader's windows whatever else is going on. ops is not
// retained.
//
// The window is untrusted input (a follower hands over whatever frame its
// leader sent), and the commit body relies on the invariant: one that
// repeats an ID is refused whole — an error, nothing journaled, nothing
// applied. A Set outside the stored range panics, as in Set, before
// anything is journaled or applied.
func (c *Collection) CommitWindow(seq uint64, ops []wal.Op) (err error) {
	for i := range ops {
		if !ops[i].Del {
			c.mustStore(ops[i].P)
		}
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	sp := c.begin()
	// The spare window is CommitWindow's scratch: its index finds a
	// repeated ID, and its records carry the hashes to the plan.
	w, applied := c.spare, 0
	for i := range ops {
		if o := &ops[i]; w.add(o.ID, hashID(o.ID), o.P, o.Del) {
			err = fmt.Errorf("collection: window %d is not netted: it repeats ID %q", seq, o.ID)
			break
		}
	}
	if err == nil {
		applied, err = c.commit(seq, w, ops, sp)
	}
	w.reset()
	c.finish(sp, len(ops), applied, 0)
	return err
}

// commit is the one commit body, run under the flush lock on a netted
// window: journal it — as ops, or spelled from w when ops is nil — plan
// the index diff, and commit both through the cell. It returns the number
// of index mutations applied and the journal hook's error.
func (c *Collection) commit(seq uint64, w *window, ops []wal.Op, sp *obs.FlushSpan) (applied int, err error) {
	// Journal the committed window before applying it (write-ahead):
	// under the always-fsync policy a caller's Flush returns — and the
	// service acknowledges — only after the window is on disk. A hook
	// failure is counted and reported, not fatal here: the in-memory
	// commit proceeds so index and table stay consistent, and the layer above
	// decides whether to keep acknowledging or applying (it does not; see
	// internal/service).
	if c.journal != nil {
		if ops == nil {
			c.plan.ops = w.appendOps(c.plan.ops[:0])
			ops = c.plan.ops
		}
		if err = c.journal(seq, ops); err != nil {
			c.journalErrs.Add(1)
		}
		clear(c.plan.ops) // no view into the window outlives it
		sp.Stamp(obs.StageLog)
	}
	// Planning counts toward the net stage.
	nIns, nMove, nDel := c.planDiff(w)
	sp.Stamp(obs.StageNet)
	pl := &c.plan
	c.cell.Commit(pl.ins, pl.del, func() { c.applyTable(w) }, sp)
	c.noteSlots()
	sp.Stamp(obs.StageApply)
	c.inserted.Add(nIns)
	c.moved.Add(nMove)
	c.removed.Add(nDel)
	// The index must not have retained the batch slices (the core.Index
	// contract), so everything is reusable next window.
	return len(pl.ins) + len(pl.del), err
}

// Load replaces the whole committed state with entries — n of them, a
// later entry for an ID winning over an earlier one — by bulk
// construction, as Recover does with Sets of entries (which are ranged
// exactly once, so a single-use iterator is fine). A final state with a
// point outside the stored range panics, as in Set, before the index is
// touched.
func (c *Collection) Load(n int, entries iter.Seq2[string, geom.Point]) {
	err := c.load(n, func(fold func(wal.Op)) error {
		for id, p := range entries {
			fold(wal.Op{ID: id, P: p})
		}
		return nil
	}, nil)
	if err != nil {
		panic(err.Error())
	}
}

// Recover replaces c's whole committed state with the fold of the ops
// stream hands its argument, in order — a Set puts its ID at its point
// whether the ID was live or not, a delete frees the ID's slot — by bulk
// construction: the ops go into a fresh slot table, and only once stream
// has returned nil and check has passed every object of the final state
// does the index get one Build over the table's live slots, through the
// cell, with the table taking the old one's place as the rebuild's table
// step, which frees the old one's arrays: no reader can reach them any
// more. A fold may pass an ID that is a view of a buffer it reuses: the
// table copies what it keeps.
//
// An error from stream or check, or a final state with a point outside
// the stored range (which check, if set, sees first), is returned and
// leaves c as it was. On success pending ops, and what Get remembered of
// them, are discarded; nothing is journaled — the caller loads what is
// already durable (WAL recovery: stream is wal.Open) or makes it so
// itself (a follower's bootstrap snapshot). In snapshot mode readers keep
// the old state until the new one is published whole. Recover is a
// function rather than a method so that the library's Collection keeps
// Load as its one bulk entry point.
func Recover(c *Collection, stream func(fold func(wal.Op)) error, check func(id string, p geom.Point) error) error {
	return c.load(0, stream, check)
}

// load is Load and Recover, sizing the fresh table for n objects.
func (c *Collection) load(n int, stream func(fold func(wal.Op)) error, check func(id string, p geom.Point) error) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	tab := newTable(c.dims, n)
	defer tab.release() // empty unless the state was refused before the step took it
	// Ops leave the point index alone; one relink builds it at the end.
	tab.unlinked = true
	stored := StoredRange(c.dims)
	// outside holds the IDs whose last Set put them where the table cannot:
	// they are not in it, and refuse the final state unless a later op
	// moves or removes them.
	var outside map[string]geom.Point
	err := stream(func(o wal.Op) {
		delete(outside, o.ID)
		slot, hash := tab.lookup(o.ID)
		switch {
		case o.Del || !stored.Contains(o.P, geom.MaxDims):
			if slot != 0 {
				tab.remove(slot, hash)
			}
			if !o.Del {
				if outside == nil {
					outside = make(map[string]geom.Point)
				}
				outside[strings.Clone(o.ID)] = o.P
			}
		case slot != 0:
			tab.move(slot, o.P)
		default:
			// Room for n IDs of this one's length at first, then the arena
			// doubles: a fresh table fills it in a few allocations.
			if need := entryBytes(o.ID); len(tab.ids)+need > cap(tab.ids) {
				tab.reserveIDs(max(n*need, len(tab.ids)+need))
			}
			tab.insert(o.ID, hash, o.P)
		}
	})
	if err != nil {
		return err
	}
	for id, p := range outside {
		if check != nil {
			if err := check(id, p); err != nil {
				return err
			}
		}
		return fmt.Errorf("collection: %q: point %v outside the stored range %v", id, p, stored)
	}
	// The live points, widened into the slice Build takes (and neither
	// writes nor retains), vetted on the way.
	pts := make([]geom.Point, 0, tab.live)
	for s, nx := range tab.next {
		if nx&freeSlot != 0 {
			continue
		}
		p := tab.at(uint32(s))
		if check != nil {
			if err := check(tab.id(uint32(s)), p); err != nil {
				return err
			}
		}
		pts = append(pts, p)
	}
	tab.relink()
	c.pend.Lock()
	c.pending.reset()
	c.pend.Unlock()
	was := c.tab.live
	c.cell.Rebuild(pts, func() {
		c.tab.release()
		*c.tab = tab
		tab = table{} // c.tab owns its arrays now
	})
	c.noteSlots()
	c.inserted.Add(uint64(len(pts)))
	c.removed.Add(uint64(was))
	return nil
}

// noteSlots publishes the table's slot counts, mapped bytes and arena size
// to the gauges; the flush lock is held.
func (c *Collection) noteSlots() {
	c.slots.Store(int64(c.tab.slots()))
	c.freeSlots.Store(int64(c.tab.slots() - c.tab.live))
	c.mapped.Store(int64(c.tab.mapped()))
	c.idBytes.Store(int64(cap(c.tab.ids)))
	c.idDead.Store(int64(c.tab.dead))
}

// planDiff resolves every record of the netted window against the table
// by the hash it carries (callers hold the flush lock; only flushes write
// the table, so no reader lock is needed) and turns the window into its
// (ins, del) index batches.
func (c *Collection) planDiff(w *window) (nIns, nMove, nDel uint64) {
	t, pl := c.tab, &c.plan
	at, ins, del := pl.at[:0], pl.ins[:0], pl.del[:0]
	for i := range w.recs {
		r := &w.recs[i]
		slot := t.slotOf(w.id(r), r.hash)
		at = append(at, slot)
		old, live, p := t.at(slot), slot != 0, r.point()
		switch {
		case r.del && live:
			del = append(del, old)
			nDel++
		case r.del:
			// Remove of an absent ID: nothing to do.
		case live && old == p:
			// Same-position Set: the index is already right.
		case live:
			del = append(del, old)
			ins = append(ins, p)
			nMove++
		default:
			ins = append(ins, p)
			nIns++
		}
	}
	pl.at, pl.ins, pl.del = at, ins, del
	return nIns, nMove, nDel
}

// applyTable is a window's table step, run under the cell's write lock:
// every record of the planned window goes through the table, by the slots
// planDiff resolved. A window that touches over a quarter of the slots
// goes wholesale: its ops leave the point index alone and one relink
// rebuilds it at the end.
func (c *Collection) applyTable(w *window) {
	t := c.tab
	wholesale := 4*len(w.recs) > t.slots()
	t.unlinked = wholesale
	for i, slot := range c.plan.at {
		r := &w.recs[i]
		switch {
		case slot == 0 && !r.del:
			t.insert(w.id(r), r.hash, r.point())
		case slot == 0:
			// Remove of an absent ID.
		case r.del:
			t.remove(slot, r.hash)
		default:
			t.move(slot, r.point())
		}
	}
	if wholesale {
		t.relink()
	}
}

// NearbyIDs returns the k objects nearest q (nearest first), resolved to
// their IDs. Ties at the k-th distance — including several objects
// sharing one point — are broken arbitrarily, matching core.Index.KNN.
// Only flushed ops are visible.
func (c *Collection) NearbyIDs(q geom.Point, k int) []Entry {
	return c.NearbyIDsAppend(q, k, nil)
}

// NearbyIDsAppend is NearbyIDs with a caller-provided destination: the
// resolved entries are appended to dst and the extended slice returned,
// following the same dst-append contract as core.Index queries (the
// collection keeps no alias to dst). Serving loops reuse one dst across
// requests so warm queries allocate nothing here.
func (c *Collection) NearbyIDsAppend(q geom.Point, k int, dst []Entry) []Entry {
	return c.NearbyIDsAppendCost(q, k, dst, nil)
}

// NearbyIDsAppendCost is NearbyIDsAppend that also fills cost, when
// non-nil, with the query's work: the pinned epoch and the geometric hits
// before ID resolution. The slow-query log is the intended caller.
func (c *Collection) NearbyIDsAppendCost(q geom.Point, k int, dst []Entry, cost *obs.QueryCost) []Entry {
	return c.query(dst, cost, func(idx core.Index, pts []geom.Point) []geom.Point {
		return idx.KNN(q, k, pts)
	})
}

// WithinIDs returns every object inside box (order unspecified),
// resolved to IDs. Only flushed ops are visible.
func (c *Collection) WithinIDs(box geom.Box) []Entry {
	return c.WithinIDsAppend(box, nil)
}

// WithinIDsAppend is WithinIDs with a caller-provided destination (see
// NearbyIDsAppend for the contract).
func (c *Collection) WithinIDsAppend(box geom.Box, dst []Entry) []Entry {
	return c.WithinIDsAppendCost(box, dst, nil)
}

// WithinIDsAppendCost is WithinIDsAppend with query-cost accounting
// (see NearbyIDsAppendCost for the contract).
func (c *Collection) WithinIDsAppendCost(box geom.Box, dst []Entry, cost *obs.QueryCost) []Entry {
	return c.query(dst, cost, func(idx core.Index, pts []geom.Point) []geom.Point {
		return idx.RangeList(box, pts)
	})
}

// query is the shared body of the geometric queries: run the index query
// against the acquired index into pooled scratch, and resolve the hits
// through the table, and read the epoch, under the same read lock. The
// Release is deferred so a panicking inner index never wedges the flush
// writer.
func (c *Collection) query(dst []Entry, cost *obs.QueryCost, run func(idx core.Index, pts []geom.Point) []geom.Point) []Entry {
	sc := c.queryPool.Get().(*queryScratch)
	defer c.queryPool.Put(sc)
	idx := c.cell.Acquire()
	defer c.cell.Release()
	sc.pts = run(idx, sc.pts[:0])
	if cost != nil {
		cost.Epoch = c.cell.Epoch()
		cost.Candidates = len(sc.pts)
	}
	return resolveAppend(c.tab, sc, dst)
}

// resolveAppend maps the scratch's hit multiset to entries through t's
// reverse multimap, appending to dst (the read lock that covered the query
// still held). A point stored once per object at it means hits and owner
// chains have equal multiplicity; for the rare points owned by several
// objects, a cursor walks the chain so duplicate hits resolve to distinct
// objects. Single-owner points — the common case — never touch the
// cursor map.
func resolveAppend(t *table, sc *queryScratch, dst []Entry) []Entry {
	cursorUsed := false
	for _, p := range sc.pts {
		s := t.head(p)
		if s != 0 && t.next[s] != 0 {
			if sc.cursor == nil {
				sc.cursor = make(map[geom.Point]uint32)
			}
			cursorUsed = true
			if at, seen := sc.cursor[p]; seen {
				s = at
			}
			if s != 0 {
				sc.cursor[p] = t.next[s]
			}
		}
		if s == 0 {
			// More hits than owners: unreachable while the flush invariant
			// holds (Validate checks it); skip rather than fabricate an entry.
			continue
		}
		dst = append(dst, Entry{ID: t.id(s), Point: p})
	}
	if cursorUsed {
		clear(sc.cursor)
	}
	return dst
}

// Pending returns the number of enqueued, not-yet-flushed ops.
func (c *Collection) Pending() int {
	c.pend.Lock()
	defer c.pend.Unlock()
	return c.pending.ops
}

// pendingBytes is what the two windows hold on the heap, read without a
// lock.
func (c *Collection) pendingBytes() int64 {
	return c.wins[0].size.Load() + c.wins[1].size.Load()
}

// Stats returns a snapshot of the Collection's counters. Counters are
// updated after each flush, so a snapshot racing a flush may lag by that
// one batch. Stats takes only the pending lock, never the flush or writer
// lock, so it does not block behind an in-flight flush: Objects is derived
// from the lifetime counters, which equal the committed table's live count
// at every flush boundary.
func (c *Collection) Stats() Stats {
	st := Stats{
		Flushes:       c.flushes.Load(),
		Inserted:      c.inserted.Load(),
		Moved:         c.moved.Load(),
		Removed:       c.removed.Load(),
		Cancelled:     c.cancelled.Load(),
		JournalErrors: c.journalErrs.Load(),
		Pending:       c.Pending(),
		Epoch:         c.cell.Epoch(),
		Versions:      c.cell.Versions(),
		RetireLag:     c.cell.RetireLag(),
	}
	st.TableWaits, st.TableWaitNs = c.cell.Waits()
	st.Objects = int(st.Inserted) - int(st.Removed)
	st.CowNodes, st.CowBytes = c.cell.Copied()
	st.TableMappedBytes = uint64(c.mapped.Load())
	st.TableIDBytes, st.TableIDDeadBytes = uint64(c.idBytes.Load()), uint64(c.idDead.Load())
	st.PendingBytes = uint64(c.pendingBytes())
	return st
}

// Validate flushes, then checks, under the flush lock, the
// transactional-consistency invariant between the committed structures:
// the index holds exactly one point per live object, the table's forward
// and reverse sides are exact inverses, and the published view of a
// versioned index is the writer's contents. Tests and the fuzz harness
// call it after every tape.
func (c *Collection) Validate() error {
	c.Flush()
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if err := c.cell.Validate(); err != nil {
		return err
	}
	idx := c.cell.Acquire()
	defer c.cell.Release()
	if got, want := idx.Size(), c.tab.live; got != want {
		return fmt.Errorf("collection: index stores %d points, %d live objects", got, want)
	}
	return c.tab.validate()
}
