// Package window implements the coalescing window engine of
// psi.Collection. The paper's indexes are batch-synchronous — BatchDiff is
// the unit of work — so a front-end that accepts single operations from
// many goroutines needs a machine that turns them into batches: an ordered
// pending log that enqueuers append to under a short lock, a flush that
// swaps the log out, nets it, applies the netted window and hands the
// emptied buffer back, a size trigger, an optional interval flusher, and
// the counters and spans that make the pipeline observable. The Engine is
// that machine; its client supplies only its op type and a net/apply pair
// (see Init), so the lifecycle is tested apart from the Collection's
// netting. A window that arrives already netted — a replicated one —
// enters the same pipeline at its apply half (Apply).
//
// Ordering: the log order is the order Appends take the pending lock,
// which is consistent with every goroutine's program order. Flushes are
// serialized, each takes the whole log, and every enqueued op is handed
// to exactly one Net call — so the applied state is always a prefix of
// the enqueue history.
package window

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMaxBatch is the coalescing threshold used when Options.MaxBatch
// is unset. It matches parallel.DefaultGrain, the size below which the
// indexes' batch operations stop forking.
const DefaultMaxBatch = 1024

// Options tunes a front-end built on the engine; psi.CollectionOptions is
// this type. The zero value is usable:
// DefaultMaxBatch coalescing, no background flusher, locked reads. The
// engine reads MaxBatch, FlushInterval and Obs; Snapshot is the
// front-end's, to hand to its version cell (epoch.Cell.Init).
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
	// Snapshot, when set, switches the front-end to epoch-pinned snapshot
	// reads: it must return a fresh, EMPTY index configured identically
	// to the wrapped one (core.Replicator semantics — most callers pass
	// the same constructor they built idx with, and the service layer
	// derives it from core.Replicator). The front-end's version cell then
	// keeps two versions of the committed index — two handles on one
	// copy-on-write structure when the returned index is a core.Adopter
	// that adopts the wrapped one, two whole copies otherwise — brings
	// every window to both (the off-line one first) and publishes through
	// an atomic epoch pointer; queries pin the published one instead of
	// taking the read lock, so a reader never waits on the index apply,
	// however large the window.
	// The wrapped index must be empty at construction. Leave nil for the
	// single-copy RWMutex mode.
	Snapshot func() core.Index
	// Obs, when set, registers the front-end's metrics (flush counters,
	// flush duration histogram, epoch gauges, labeled layer="collection")
	// and records a flush-pipeline span per flush into the registry's
	// trace ring. Recording is atomics into preallocated
	// storage — the zero-alloc flush guarantee holds with a live
	// registry. Leave nil to pay nothing.
	Obs *obs.Registry
}

// Stats is a snapshot of an engine's lifetime counters. Counters advance
// after each flush, so a snapshot racing a flush may lag by that window.
type Stats struct {
	Flushes   uint64 // windows applied
	Cancelled uint64 // ops netted out before reaching the index
	Pending   int    // ops enqueued but not yet flushed
}

// Engine is one coalescing pipeline. A layer embeds it by value — the
// enqueue path then reaches the log without a pointer hop — and calls
// Init once; all other methods are safe for concurrent use.
type Engine[O any] struct {
	layer string
	net   func(ops []O) (cancelled int)
	apply func(sp *obs.FlushSpan, clk time.Time) (applied int)

	// pend guards the pending log and the MaxBatch trigger. It is held
	// only for appends and the swap — never while a window is applied —
	// and is exported through Lock/Unlock so a client can keep per-op
	// state of its own (Collection's read-your-writes overlay) exactly
	// consistent with the log order. full is set by the Append that
	// brings the log to maxBatch and consumed by the Unlock that ends
	// its section, so it is always false while pend is free.
	pend     sync.Mutex
	log      []O
	maxBatch int
	full     bool

	// flushMu serializes flushes (and Exclusive sections). spare is the
	// previous window's emptied log, handed to the enqueuers at the next
	// swap: the log double-buffers instead of re-growing every window.
	flushMu sync.Mutex
	spare   []O

	flushes, rawOps, applied, cancelled atomic.Uint64

	// Span recording state, nil/zero without Options.Obs. span is the
	// persistent scratch (guarded by flushMu) that keeps recording
	// allocation-free.
	trace    *obs.FlushTrace
	flushDur *obs.Hist
	span     obs.FlushSpan

	// stop and done are the interval flusher's channels (nil when
	// Options.FlushInterval is unset): Init starts it, Close stops it.
	stop, done chan struct{}
	closeOnce  sync.Once
}

// Init sets up the engine of the named layer ("collection": the
// Layer of its flush spans and the layer= label of its metrics) and, if
// opts.FlushInterval is positive, starts its background flusher; pair
// Init with Close. The layer's half of a flush is the net/apply pair,
// both run under the flush lock, one flush at a time: net reduces one
// window's raw log, in enqueue order, to the layer's netted form (kept
// in the layer's own scratch; ops is only valid during the call) and
// returns how many ops netting cancelled; apply commits that window and
// returns the number of index mutations applied. sp (nil without a
// registry) and clk carry the flush span: apply stamps its own stages
// from clk onward.
func (e *Engine[O]) Init(layer string, opts Options, net func(ops []O) int, apply func(sp *obs.FlushSpan, clk time.Time) int) {
	e.layer, e.net, e.apply = layer, net, apply
	e.maxBatch = opts.MaxBatch
	if e.maxBatch <= 0 {
		e.maxBatch = DefaultMaxBatch
	}
	r, label := opts.Obs, obs.Label{Key: "layer", Value: layer} // a nil registry registers nothing
	r.CounterFunc("psi_flush_total",
		"Flush windows applied to the index.", e.flushes.Load, label)
	r.CounterFunc("psi_flush_ops_raw_total",
		"Mutations entering flush windows before netting.", e.rawOps.Load, label)
	r.CounterFunc("psi_flush_ops_netted_total",
		"Index mutations surviving netting (applied inserts plus deletes).", e.applied.Load, label)
	r.CounterFunc("psi_flush_ops_cancelled_total",
		"Ops netted out of their flush window before reaching the index.", e.cancelled.Load, label)
	e.flushDur = r.Histogram("psi_flush_duration_ns",
		"Flush wall time in nanoseconds, summed over pipeline stages.", label)
	e.trace = r.FlushTrace()
	if opts.FlushInterval > 0 {
		e.stop, e.done = make(chan struct{}), make(chan struct{})
		go e.flusher(opts.FlushInterval)
	}
}

// flusher is the interval flush loop: it bounds how long an op stays
// pending under light traffic.
func (e *Engine[O]) flusher(d time.Duration) {
	defer close(e.done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.Flush()
		case <-e.stop:
			return
		}
	}
}

// Lock takes the pending-log lock. Hold it only for Appends and reads or
// writes of client state that must stay consistent with the log order.
func (e *Engine[O]) Lock() { e.pend.Lock() }

// Append logs one op; the caller holds the lock.
func (e *Engine[O]) Append(op O) {
	e.log = append(e.log, op)
	e.full = len(e.log) >= e.maxBatch
}

// Unlock releases the pending-log lock and, when an Append in the
// section it ends brought the log to MaxBatch, flushes — the built-in
// backpressure: whoever fills the window pays for applying it. A section
// without an Append never flushes, so net/apply callbacks (which run
// under the flush lock) may Lock/Unlock around client state.
func (e *Engine[O]) Unlock() {
	full := e.full
	e.full = false
	e.pend.Unlock()
	if full {
		e.Flush()
	}
}

// Pending returns the number of enqueued, not-yet-flushed ops.
func (e *Engine[O]) Pending() int {
	e.pend.Lock()
	defer e.pend.Unlock()
	return len(e.log)
}

// Flush nets and applies every pending op as one window and returns the
// number of index mutations applied. The log is swapped out under the
// pending lock, so concurrent flushes and enqueues never double-apply or
// drop an op. Flush is a barrier: on return, every op enqueued before the
// call has been applied.
func (e *Engine[O]) Flush() int {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.pend.Lock()
	if len(e.log) == 0 {
		e.pend.Unlock()
		return 0
	}
	ops := e.log
	e.log, e.spare = e.spare, nil
	e.pend.Unlock()

	sp, clk := e.begin()
	cancelled := e.net(ops)
	clk = sp.Stamp(obs.StageNet, clk)
	applied := e.finish(sp, clk, len(ops), cancelled, e.apply)
	// Clear the log before recycling it, so idle capacity never pins the
	// window's values (ID strings, typically).
	clear(ops)
	e.spare = ops[:0]
	return applied
}

// Apply commits one window that arrives already netted (a replicated
// one: raw ops, none of them cancelled). It is Flush from the net/apply
// seam on — the same flush lock, span, counters and metric series — with
// the pending log left alone; apply has Init's contract and may carry
// the window and its outcome in its closure.
func (e *Engine[O]) Apply(raw int, apply func(sp *obs.FlushSpan, clk time.Time) int) int {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	sp, clk := e.begin()
	return e.finish(sp, clk, raw, 0, apply)
}

// begin opens a window's span (nil without a registry); the flush lock
// is held.
func (e *Engine[O]) begin() (sp *obs.FlushSpan, clk time.Time) {
	if e.trace == nil {
		return nil, clk
	}
	clk = time.Now()
	e.span = obs.FlushSpan{Layer: e.layer, Start: clk.UnixNano()}
	return &e.span, clk
}

// finish is the apply half of every window: apply it, then account it.
func (e *Engine[O]) finish(sp *obs.FlushSpan, clk time.Time, raw, cancelled int, apply func(*obs.FlushSpan, time.Time) int) int {
	applied := apply(sp, clk)
	e.flushes.Add(1)
	e.rawOps.Add(uint64(raw))
	e.applied.Add(uint64(applied))
	e.cancelled.Add(uint64(cancelled))
	if sp != nil {
		sp.RawOps, sp.NettedOps, sp.Cancelled = raw, applied, cancelled
		e.flushDur.Record(sp.Dur())
		e.trace.Record(*sp)
	}
	return applied
}

// Exclusive runs fn while the pipeline is quiescent: no window nets or
// applies until fn returns. fn must not call Flush, Exclusive or Close.
func (e *Engine[O]) Exclusive(fn func()) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	fn()
}

// Discard drops every pending op unapplied; the caller holds the lock
// (so its own per-op state is dropped in the same section). A client
// whose contents are replaced wholesale calls it inside the same
// Exclusive section.
func (e *Engine[O]) Discard() {
	clear(e.log)
	e.log = e.log[:0]
	e.full = false
}

// Close shuts the pipeline down, exactly once however many goroutines
// call it: stop the interval flusher and wait for it, then run the final
// flush. The order is the contract: the ticker has fully exited before
// the final flush, and no call returns before both are done. The engine
// stays usable afterwards; only interval flushing has ended.
func (e *Engine[O]) Close() {
	e.closeOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.done
		}
		e.Flush()
	})
}

// Stats returns a snapshot of the counters. It takes only the pending
// lock, never the flush lock, so it does not block behind a flush.
func (e *Engine[O]) Stats() Stats {
	return Stats{Flushes: e.flushes.Load(), Cancelled: e.cancelled.Load(), Pending: e.Pending()}
}
