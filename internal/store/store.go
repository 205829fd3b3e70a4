// Package store implements psi.Store, a concurrent batch-coalescing
// front-end over any core.Index. The paper's indexes are batch-synchronous:
// batch updates parallelize internally but the caller must serialize
// mutation (core.Index: "NOT safe for concurrent mutation"). Store removes
// that caveat at the API boundary. Many goroutines enqueue Insert/Delete
// requests concurrently; Store coalesces them into batches and applies each
// batch with a single BatchDiff under a write lock, so the paper's parallel
// batch-update machinery is amortized across callers instead of being
// driven one mutation at a time. Queries always observe a consistent
// view: either all of a flushed batch or none of it, never a half-applied
// update. Reader isolation is the version cell's job (epoch.Cell) — the
// Store hands it the index and Options.Snapshot, commits netted windows
// through it and reads what it acquires: in the default locked mode
// queries share a read lock with the flush writer; with Options.Snapshot
// set the cell double-buffers the index and queries pin the published
// version — wait-free against even the largest commit window
// (ARCHITECTURE.md "Epochs & snapshot reads"). The pending log and
// its flushing are the window engine's (internal/window); this package
// adds the order-aware multiset netting.
//
// Visibility contract: a mutation becomes visible to queries atomically at
// the flush that applies it — on the enqueue that fills the batch to
// MaxBatch, at the next FlushInterval tick, or at an explicit Flush. A
// flush has the same net effect as executing the window's mutations
// sequentially in enqueue order: pending mutations are kept in one
// ordered log, and at flush each delete cancels against one *preceding*
// unmatched pending insert of the same point when one exists — otherwise
// it passes through to the index's delete batch, which applies before the
// surviving inserts. This order-aware netting is what makes coalescing
// transparent: a move chain (delete p0, insert p1, delete p1, insert p2)
// nets to {delete p0, insert p2} even when the whole chain lands in one
// window, and a delete enqueued before any insert of its point never
// consumes that later insert. Enqueue order is the order appends take the
// pending lock, which is consistent with every goroutine's program order.
//
// Scaling composition: a Store's flush throughput is bounded by one
// index's batch speed. Wrapping a shard.Sharded (Store over Sharded)
// keeps this package's coalescing and whole-batch visibility while each
// flush fans out across the shards in parallel — the recommended
// high-volume serving stack (README "Scaling out").
package store

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/window"
)

// Options tunes a Store: the coalescing trigger (MaxBatch), the
// background flusher (FlushInterval), snapshot reads (Snapshot) and
// metrics (Obs). The zero value is usable.
type Options = window.Options

// Stats is a snapshot of a Store's lifetime counters. It is assembled
// from atomics and the pending lock only — never the writer lock — so
// sampling it during a large flush does not block.
type Stats struct {
	Flushes   uint64 // batches applied to the index
	Inserted  uint64 // insert requests applied by those batches
	Deleted   uint64 // delete requests applied by those batches
	Cancelled uint64 // insert/delete pairs netted out before applying
	Pending   int    // mutations enqueued but not yet flushed
	Epoch     uint64 // published snapshot epoch (0 in locked mode)
	Versions  int    // live index versions: 2 in snapshot mode, 1 locked
	RetireLag uint64 // published epochs whose displaced version has not drained
}

// Store wraps a core.Index for safe concurrent use. Create one with New;
// the zero value is not usable. Store itself implements core.Index, so it
// is a drop-in replacement anywhere an index is consumed — with the added
// guarantee that every method may be called from any number of goroutines.
type Store struct {
	name string
	dims int

	// eng owns the ordered pending log (netting at flush time needs to
	// know whether a delete preceded or followed an insert of its point),
	// the flush triggers and the flush lock. cell owns the index copies
	// and how queries are kept off the flush writer.
	eng  window.Engine[pendOp]
	cell epoch.Cell

	// scratch is the netting buffer set and ins, del the window it last
	// produced, all guarded by the engine's flush lock. Everything grows
	// to the window high-water mark and is then reused verbatim, so a
	// warm Store flushes with zero allocations.
	scratch  netScratch
	ins, del []geom.Point

	inserted atomic.Uint64
	deleted  atomic.Uint64
}

// pendOp is one logged mutation request.
type pendOp struct {
	p   geom.Point
	del bool
}

var _ core.Index = (*Store)(nil)

// New wraps idx in a Store. The Store takes ownership: the caller must not
// touch idx directly afterwards. If opts.FlushInterval is positive the
// background flusher starts immediately; pair New with Close to stop it.
func New(idx core.Index, opts Options) *Store {
	s := &Store{name: fmt.Sprintf("Store(%s)", idx.Name()), dims: idx.Dims()}
	s.cell.Init("store", idx, opts.Snapshot, nil)
	s.cell.Register(opts.Obs, obs.Label{Key: "layer", Value: "store"})
	s.eng.Init("store", opts,
		func(ops []pendOp) (cancelled int) {
			s.ins, s.del, cancelled = s.scratch.net(ops)
			return cancelled
		},
		func(sp *obs.FlushSpan, clk time.Time) int {
			s.cell.Commit(s.ins, s.del, sp, clk)
			s.inserted.Add(uint64(len(s.ins)))
			s.deleted.Add(uint64(len(s.del)))
			return len(s.ins) + len(s.del)
		})
	return s
}

// Close stops the background flusher (if any) and applies all pending
// mutations. The Store remains usable after Close — only the periodic
// flushing ends. Close is idempotent.
func (s *Store) Close() {
	s.eng.Close(nil)
	s.eng.Flush()
}

// Name implements core.Index.
func (s *Store) Name() string { return s.name }

// Dims implements core.Index.
func (s *Store) Dims() int { return s.dims }

// Insert enqueues one point for insertion.
func (s *Store) Insert(p geom.Point) { s.BatchDiff([]geom.Point{p}, nil) }

// Delete enqueues the removal of one occurrence of p. As with
// core.Index.BatchDelete, a request matching no stored point is ignored
// when its batch applies.
func (s *Store) Delete(p geom.Point) { s.BatchDiff(nil, []geom.Point{p}) }

// BatchInsert implements core.Index: the whole batch is enqueued as a unit
// and will be applied by a single flush.
func (s *Store) BatchInsert(pts []geom.Point) { s.BatchDiff(pts, nil) }

// BatchDelete implements core.Index.
func (s *Store) BatchDelete(pts []geom.Point) { s.BatchDiff(nil, pts) }

// BatchDiff implements core.Index and is every mutation's enqueue path.
// It logs the deletes before the inserts, matching the core.Index
// BatchDiff contract ("the del points leave, the ins points enter") for a
// same-call overlap; the engine's Unlock flushes when the log reached
// MaxBatch.
func (s *Store) BatchDiff(ins, del []geom.Point) {
	s.eng.Lock()
	for _, p := range del {
		s.eng.Append(pendOp{p: p, del: true})
	}
	for _, p := range ins {
		s.eng.Append(pendOp{p: p})
	}
	s.eng.Unlock()
}

// Flush applies every pending mutation as one batch and returns the number
// applied. Each enqueued mutation is applied by exactly one flush, so
// concurrent flushes and enqueues never double-apply or drop a request.
// Flush is a synchronization barrier — on return, every mutation enqueued
// before the call is visible to queries.
func (s *Store) Flush() int { return s.eng.Flush() }

// netScratch is the per-Store netting buffer set (guarded by the flush
// lock).
type netScratch struct {
	ins, del    []geom.Point
	avail, skip map[geom.Point]int
}

// net reduces one flush window's ordered op log to the (ins, del)
// batches whose BatchDiff application has the same net effect as running
// the log sequentially. Each delete cancels one preceding unmatched
// pending insert of its point when one exists; otherwise it is a real
// delete targeting points stored before the window, so applying all real
// deletes before all surviving inserts (the BatchDiff order) reproduces
// sequential execution exactly. A delete enqueued before any insert of
// its point therefore never consumes that later insert. The common
// single-kind windows skip the matching pass entirely.
//
// The returned slices alias the scratch: they are valid until the next
// net call, and callers hand them to BatchDiff, which must not retain
// them (the core.Index batch contract).
func (sc *netScratch) net(ops []pendOp) (ins, del []geom.Point, cancelled int) {
	nDel := 0
	for _, op := range ops {
		if op.del {
			nDel++
		}
	}
	if nDel == 0 || nDel == len(ops) {
		out := sc.ins[:0]
		for _, op := range ops {
			out = append(out, op.p)
		}
		sc.ins = out
		if nDel == 0 {
			return out, nil, 0
		}
		return nil, out, 0
	}
	// Pass 1, in order: count unmatched preceding inserts per point; a
	// delete with one available consumes it, the rest are real deletes.
	if sc.avail == nil {
		sc.avail = make(map[geom.Point]int)
		sc.skip = make(map[geom.Point]int)
	}
	avail, skip := sc.avail, sc.skip // skip: insert occurrences to drop per point
	clear(avail)
	clear(skip)
	del = sc.del[:0]
	for _, op := range ops {
		switch {
		case !op.del:
			avail[op.p]++
		case avail[op.p] > 0:
			avail[op.p]--
			skip[op.p]++
			cancelled++
		default:
			del = append(del, op.p)
		}
	}
	// Pass 2: collect the surviving inserts. Which occurrence of a point
	// is dropped is irrelevant under multiset semantics, so skip the
	// earliest ones.
	ins = sc.ins[:0]
	for _, op := range ops {
		if op.del {
			continue
		}
		if skip[op.p] > 0 {
			skip[op.p]--
			continue
		}
		ins = append(ins, op.p)
	}
	sc.ins, sc.del = ins, del
	return ins, del, cancelled
}

// Build implements core.Index: it atomically replaces the contents with
// pts. Mutations enqueued before Build and not yet flushed are discarded —
// Build defines a new epoch, matching the bulk-construction contract.
func (s *Store) Build(pts []geom.Point) {
	s.eng.Exclusive(func() {
		s.eng.Lock()
		s.eng.Discard()
		s.eng.Unlock()
		s.cell.Rebuild(pts)
	})
}

// Size implements core.Index. It first flushes pending mutations so the
// answer reflects every enqueue that happened before the call.
func (s *Store) Size() int {
	s.Flush()
	v := s.cell.Acquire()
	defer s.cell.Release(v)
	return v.Index.Size()
}

// KNN implements core.Index. Queries always observe a whole number of
// flushed batches, never a half-applied one: they read the version the
// cell hands out — pinned in snapshot mode (wait-free against flushes),
// under the shared read lock otherwise. The Release is deferred so a
// panicking inner index never wedges the flush writer.
func (s *Store) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	v := s.cell.Acquire()
	defer s.cell.Release(v)
	return v.Index.KNN(q, k, dst)
}

// RangeCount implements core.Index.
func (s *Store) RangeCount(box geom.Box) int {
	v := s.cell.Acquire()
	defer s.cell.Release(v)
	return v.Index.RangeCount(box)
}

// RangeList implements core.Index.
func (s *Store) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	v := s.cell.Acquire()
	defer s.cell.Release(v)
	return v.Index.RangeList(box, dst)
}

// Pending returns the number of enqueued, not-yet-flushed mutations.
func (s *Store) Pending() int { return s.eng.Pending() }

// Stats returns a snapshot of the Store's counters. The counters are
// updated after each flush, so a snapshot taken concurrently with a flush
// may lag by that one batch. Stats never takes the writer lock, so it
// does not block behind an in-flight flush.
func (s *Store) Stats() Stats {
	es := s.eng.Stats()
	return Stats{
		Flushes:   es.Flushes,
		Inserted:  s.inserted.Load(),
		Deleted:   s.deleted.Load(),
		Cancelled: es.Cancelled,
		Pending:   es.Pending,
		Epoch:     s.cell.Epoch(),
		Versions:  s.cell.Versions(),
		RetireLag: s.cell.RetireLag(),
	}
}
