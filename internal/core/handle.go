package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// Copy-on-write handles, and reclaim at unpin: the one protocol both
// copy-on-write trees follow (internal/spactree and internal/orthtree
// cow.go say where each copies and what its nodes hold). A tree embeds a
// Handle and is the only writer of its nodes. The handle carries a
// generation, a node the generation of the writer when it was created, and
// a node is written in place only when the two are equal (Owns); any other
// node is copied first, and the copy counted (NoteCopies, Copied). A tree
// that never pins keeps one generation for life and owns every node it
// reaches.
//
// What a writer owns it may also reuse. An update that reads and replaces
// an owned node gives it, with its leaf block or child array, to the
// handle's Pool (Free), and the nodes and blocks it builds next come from
// there (NewNode, Blocks). An owned node was never published: no reader
// can reach it, exactly why it may be written. The pool also keeps each
// tree's own scratch, so a steady stream of batches on a tree that never
// pins allocates next to nothing. Between updates the handle holds its
// pool weakly: the collector takes it back at its next cycle, so what a
// tree keeps for its updates is never part of its live heap. Build takes
// no pool and reuses nothing.
//
// The paper's updates rebuild only the paths a batch reaches, so the root
// before an update is already an intact version. Pin hands it out as a
// read-only view and steps the writer's generation, so that the writer
// owns nothing the view reaches: each later update copies the nodes on the
// paths it writes, and the originals it displaces stay where the view's
// readers find them. A node the writer displaces and does not own is
// reachable from the newest view — the writer has stamped everything it
// made since that Pin — and perhaps from older ones, and from no view
// pinned after it. So Free appends it to the newest pin's list, and Unpin,
// which the caller makes once the view's readers have ended, gives the
// lists to the pool oldest first, each once its pin and every older one
// are unpinned. With no view pinned a displaced node is recycled at once.
// PAM (Sun, Ferizovic and Blelloch, PPoPP 2018) returns persistent nodes
// to its own allocator the same way, by reference counts; here the pins'
// order stands in for the counts.

// Handle is a copy-on-write tree handle — N the tree's node type, E the
// element of its leaf blocks, X its own scratch: its generation, what its
// updates copied, its pool, and on a writer its pinned views, on a view
// the pin it is.
type Handle[N, E, X any] struct {
	// Gen is the handle's generation: a writer writes a node in place
	// only when the node's stamp equals it; on a view, the generation it
	// was pinned at.
	Gen uint64
	// copiedNodes and copiedElems total what updates copied on first
	// touch; atomics only because a metrics scrape may read them
	// mid-update.
	copiedNodes, copiedElems atomic.Uint64
	pool                     weak.Pointer[Pool[N, E, X]]
	run                      *Pool[N, E, X] // the running update's hold on pool: nil outside one, in Build too
	// pins are the writer's pinned views, oldest first, each kept until
	// it and every older one are unpinned; spare the records of those
	// that were, for the next Pin. mu guards the newest pin's list, which
	// an update's forked branches append to at once.
	pins, spare []*Pin[N, E, X]
	mu          sync.Mutex
	view        *Pin[N, E, X] // non-nil on a view: the pin it is
}

// Pin is the record of one pinned view in its writer: whether the view is
// still pinned, and the shared nodes the writer displaced while it was the
// newest pin, which wait for it and every older pin to be unpinned.
type Pin[N, E, X any] struct {
	// View is the tree's view object, made at the record's first Pin and
	// handed out again by every Pin that reuses the record.
	View  Index
	of    *Handle[N, E, X] // the writer
	gen   uint64
	held  bool
	nodes []*N
}

// Pool is what a writer's updates reuse from one to the next: the nodes
// and leaf blocks it displaced once nothing reaches them, and the tree's
// own scratch.
type Pool[N, E, X any] struct {
	X      X
	Nodes  FreeList[N]
	Blocks Recycler[E]
}

// Begin hands the update about to run the handle's pool, a new one if the
// collector has taken the last; End lets go of it. A view refuses the
// update.
func (h *Handle[N, E, X]) Begin() {
	h.MustWrite()
	p := h.pool.Value()
	if p == nil {
		p = new(Pool[N, E, X])
		h.pool = weak.Make(p)
	}
	h.run = p
}

func (h *Handle[N, E, X]) End() { h.run = nil }

// MustWrite panics when h is a view: a pinned view is read-only.
func (h *Handle[N, E, X]) MustWrite() {
	if h.view != nil {
		panic("core: a pinned view is read-only")
	}
}

// Pool is the running update's pool, nil outside an update.
func (h *Handle[N, E, X]) Pool() *Pool[N, E, X] { return h.run }

// Blocks is the running update's block recycler, nil outside an update.
func (h *Handle[N, E, X]) Blocks() *Recycler[E] {
	if h.run == nil {
		return nil
	}
	return &h.run.Blocks
}

// NewNode returns a node holding v: one the running update recycled, or a
// new one.
func (h *Handle[N, E, X]) NewNode(v N) *N {
	var nd *N
	if h.run != nil {
		nd = h.run.Nodes.Get()
	} else {
		nd = new(N)
	}
	*nd = v
	return nd
}

// Owns reports whether the handle may write a node stamped gen in place.
func (h *Handle[N, E, X]) Owns(gen uint64) bool { return gen == h.Gen }

// Free takes nd, stamped gen, which the running update has read and
// replaces: to the pool at once, through give, when the writer owns it or
// no view is pinned, since then nothing else can reach it; onto the newest
// pin's list otherwise, for Unpin to reclaim. give hands the pool what nd
// holds — its block or child array. Outside an update it does nothing.
func (h *Handle[N, E, X]) Free(nd *N, gen uint64, give func(*Pool[N, E, X], *N)) {
	p := h.run
	if p == nil {
		return
	}
	if n := len(h.pins); n > 0 && !h.Owns(gen) {
		h.mu.Lock()
		h.pins[n-1].nodes = append(h.pins[n-1].nodes, nd)
		h.mu.Unlock()
		return
	}
	p.recycle(nd, give)
}

func (p *Pool[N, E, X]) recycle(nd *N, give func(*Pool[N, E, X], *N)) {
	give(p, nd)
	var zero N
	*nd = zero // pins nothing while it waits
	p.Nodes.Put(nd)
}

// Pin records a new view of the writer's contents and steps its
// generation, so that it owns nothing the view reaches; the tree hands out
// the record's View, which it makes the first time and marks with Viewing.
// O(1), and without allocating once a record is spare.
func (h *Handle[N, E, X]) Pin() *Pin[N, E, X] {
	h.MustWrite()
	var p *Pin[N, E, X]
	if n := len(h.spare); n > 0 {
		p, h.spare = h.spare[n-1], h.spare[:n-1]
	} else {
		p = &Pin[N, E, X]{of: h}
	}
	p.gen, p.held = h.Gen, true
	h.pins = append(h.pins, p)
	h.Gen++
	return p
}

// Viewing makes h, the handle of the tree p.View, the read-only view p
// records, at the generation p pinned.
func (h *Handle[N, E, X]) Viewing(p *Pin[N, E, X]) { h.view, h.Gen = p, p.gen }

// Viewed returns the pin of a view, nil on a writer.
func (h *Handle[N, E, X]) Viewed() *Pin[N, E, X] { return h.view }

// Unpin ends the pin p of the writer, whose view's readers must have
// ended, and gives the pool, through give, every list no pinned view can
// reach any more: the lists of the oldest pins, up to the first still
// held. It panics unless p is a held pin of h.
func (h *Handle[N, E, X]) Unpin(p *Pin[N, E, X], give func(*Pool[N, E, X], *N)) {
	if !h.Holds(p) {
		panic("core: Unpin of a view that is not pinned from this tree")
	}
	p.held = false
	pool := h.pool.Value()
	k := 0
	for ; k < len(h.pins) && !h.pins[k].held; k++ {
		q := h.pins[k]
		if pool != nil {
			for _, nd := range q.nodes {
				pool.recycle(nd, give)
			}
		}
		clear(q.nodes)
		q.nodes = q.nodes[:0]
		h.spare = append(h.spare, q)
	}
	n := copy(h.pins, h.pins[k:])
	clear(h.pins[n:])
	h.pins = h.pins[:n]
}

// Holds reports whether p is a pin of the writer h, not yet unpinned.
func (h *Handle[N, E, X]) Holds(p *Pin[N, E, X]) bool { return p != nil && p.of == h && p.held }

// NoteCopies adds to Copied nodes copied on first touch, and elems leaf
// elements copied with them.
func (h *Handle[N, E, X]) NoteCopies(nodes, elems uint64) {
	h.copiedNodes.Add(nodes)
	h.copiedElems.Add(elems)
}

// Copied implements Versioned for the tree that embeds h: the nodes, and
// the bytes of leaf elements, it has copied on first touch since it was
// made.
func (h *Handle[N, E, X]) Copied() (nodes, bytes uint64) {
	var e E
	return h.copiedNodes.Load(), h.copiedElems.Load() * uint64(unsafe.Sizeof(e))
}
