package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// Copy-on-write handles, and reclaim at adopt: the one protocol both
// copy-on-write trees follow (internal/spactree and internal/orthtree
// cow.go say where each copies and what its nodes hold). A tree embeds a
// Handle. The handle carries a generation, a node the generation of the
// handle that created it, and a node is written in place only when the two
// are equal (Owns); any other node is copied first, and the copy counted
// (NoteCopies, Copied). A tree that never adopts keeps one generation for
// life and owns every node it reaches.
//
// What a handle owns it may also reuse. An update that reads and replaces
// an owned node gives it, with its leaf block or child array, to the
// handle's Pool (Free), and the nodes and blocks it builds next come from
// there (NewNode, Blocks). An owned node was never published: no reader
// and no other handle can reach it, exactly why it may be written. The
// pool also keeps each tree's own scratch, so a steady stream of batches
// on a tree that never adopts allocates next to nothing. Between updates
// the handle holds its pool weakly: the collector takes it back at its
// next cycle, so what a tree keeps for its updates is never part of its
// live heap. Build takes no pool and reuses nothing.
//
// Two handles that Adopt made a pair share one structure and one pool;
// each update copies the shared nodes on the paths it writes, and the
// originals it displaces stay reachable from the other handle, and from
// that handle's readers, until the other handle adopts the updated one.
// Then nothing reaches them any more: the handle that let go of them was
// the last, and its readers have ended (the Adopter contract). So an
// update retires each shared node it displaces into the pool (Free,
// Retired.Add), and Adopt gives the nodes to the pool's free lists
// (Retired.Reclaim) — never sooner, since until then the partner may read
// them. PAM (Sun, Ferizovic and Blelloch, PPoPP 2018) returns persistent
// nodes to its own allocator the same way, by reference counts; here the
// pair protocol stands in for the counts.
//
// A retired node is reused only when three things hold at the Adopt: the
// receiver and the source are each other's partner, the receiver still
// roots exactly the structure the source's updates started from, and the
// source alone retired the nodes. A node stamped at or below the
// generation at which the pair formed is never retired at all: a handle
// that adopted one of the two before may still root it. Whatever fails
// these tests goes to the garbage collector, as before.

// pairs numbers the pairs Adopt forms; 0 is none.
var pairs atomic.Uint64

// Twin is the copy-on-write state of one tree handle: the generation it
// stamps on the nodes it creates and writes in place, and the pair Adopt
// last made it one of, with the generation at which that pair formed.
type Twin struct {
	// Gen is the handle's generation: it writes a node in place only
	// when the node's stamp equals it.
	Gen   uint64
	floor uint64 // the pair's generation at forming: nothing at or below is retired
	pair  uint64 // the pair's number, 0 before the first Adopt
}

// Adopt is the generation step of receiver.Adopt(source): it moves both
// above every stamp either can reach — receiver to max+1, source to max+2 —
// so that neither owns a node the other can see, and reports whether the
// two were each other's partner already. When they were not, they become
// a new pair, and everything stamped so far is below its floor.
func Adopt(receiver, source *Twin) (partners bool) {
	g := max(receiver.Gen, source.Gen)
	partners = receiver.pair != 0 && receiver.pair == source.pair
	if !partners {
		receiver.pair = pairs.Add(1)
		source.pair = receiver.pair
		receiver.floor, source.floor = g, g
	}
	receiver.Gen, source.Gen = g+1, g+2
	return partners
}

// Owns reports whether the handle may write a node stamped gen in place.
func (w *Twin) Owns(gen uint64) bool { return gen == w.Gen }

// Retires reports whether a node stamped gen that the handle displaces
// and does not own is retired for reuse: whether it was stamped after the
// pair formed, so that no earlier partner can root it.
func (w *Twin) Retires(gen uint64) bool { return gen > w.floor }

// Handle is a copy-on-write tree handle — N the tree's node type, E the
// element of its leaf blocks, X its own scratch: its Twin, what its
// updates copied, and its pool.
type Handle[N, E, X any] struct {
	Twin
	// copiedNodes and copiedElems total what updates copied on first
	// touch; atomics only because a metrics scrape may read them
	// mid-update.
	copiedNodes, copiedElems atomic.Uint64
	pool                     weak.Pointer[Pool[N, E, X]]
	run                      *Pool[N, E, X] // the running update's hold on pool: nil outside one, in Build too
}

// Pool is what a handle's updates reuse from one to the next: the nodes
// and leaf blocks it owned and displaced, or that its partner's last
// update retired, and the tree's own scratch. Two handles Adopt made a
// pair share one.
type Pool[N, E, X any] struct {
	X       X
	Nodes   FreeList[N]
	Blocks  Recycler[E]
	retired Retired[N]
}

// Begin hands the update about to run, on a handle rooting root, the
// handle's pool, a new one if the collector has taken the last; End lets
// go of it.
func (h *Handle[N, E, X]) Begin(root *N) {
	p := h.pool.Value()
	if p == nil {
		p = new(Pool[N, E, X])
		h.pool = weak.Make(p)
	}
	p.retired.Begin(&h.Twin, root)
	h.run = p
}

func (h *Handle[N, E, X]) End() { h.run = nil }

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

// Takes reports whether Free, in the running update, takes a node stamped
// gen: a node the handle owns, or a shared one stamped since the pair
// formed. Owned nodes hang only below owned ones, and a node stamped since
// the pair formed only below one too, so a walk that frees a subtree stops
// at the first node it does not take.
func (h *Handle[N, E, X]) Takes(gen uint64) bool {
	return h.run != nil && (h.Owns(gen) || h.Retires(gen))
}

// Free takes nd, stamped gen, which the running update has read and
// replaces: to the pool at once, through give, when the handle owns it,
// since no reader and no other handle can reach it; into the retired
// record when Takes says so of a shared node, for Adopt to reclaim. give
// hands the pool what nd holds — its block or child array.
func (h *Handle[N, E, X]) Free(nd *N, gen uint64, give func(*Pool[N, E, X], *N)) {
	switch p := h.run; {
	case p == nil:
	case h.Owns(gen):
		p.recycle(nd, give)
	case h.Retires(gen):
		p.retired.Add(nd)
	}
}

func (p *Pool[N, E, X]) recycle(nd *N, give func(*Pool[N, E, X], *N)) {
	give(p, nd)
	var zero N
	*nd = zero // pins nothing while it waits
	p.Nodes.Put(nd)
}

// Adopt is the core step of receiver.Adopt(src), for h the receiver and
// root its contents: it steps the pair's generations (Adopt), has src's
// pool reclaim, through give, the nodes src's updates retired when
// Retired.Reclaim says it may, and makes that pool the pair's. The next
// update of either handle may reuse those nodes, so queries on root must
// have ended by then.
func (h *Handle[N, E, X]) Adopt(src *Handle[N, E, X], root *N, give func(*Pool[N, E, X], *N)) {
	partners := Adopt(&h.Twin, &src.Twin)
	if p := src.pool.Value(); p != nil {
		p.retired.Reclaim(&src.Twin, root, partners, func(nd *N) { p.recycle(nd, give) })
	}
	h.pool = src.pool
}

// NoteCopies adds to Copied nodes copied on first touch, and elems leaf
// elements copied with them.
func (h *Handle[N, E, X]) NoteCopies(nodes, elems uint64) {
	if nodes != 0 {
		h.copiedNodes.Add(nodes)
		h.copiedElems.Add(elems)
	}
}

// Copied implements Adopter for the tree that embeds h: the nodes, and the
// bytes of leaf elements, it has copied on first touch since it was made.
func (h *Handle[N, E, X]) Copied() (nodes, bytes uint64) {
	var e E
	return h.copiedNodes.Load(), h.copiedElems.Load() * uint64(unsafe.Sizeof(e))
}

// Retired is the record a pool keeps of the shared nodes — N the node
// type — that the updates of one handle displaced, from the handle's first
// update after an Adopt to the next Adopt of either handle. The forked
// branches of one update add to it at once, each node to one of a few
// lists picked by its address, so that two branches seldom wait for the
// same lock.
type Retired[N any] struct {
	by    *Twin // the handle whose updates retired the nodes
	from  *N    // its root when the first of them began
	mixed bool  // another handle began an update with nodes recorded
	parts [retiredParts]struct {
		mu    sync.Mutex
		nodes []*N
		_     [32]byte // a cache line of its own
	}
}

const retiredParts = 8

// Begin notes an update by handle t, which roots root, about to run.
func (r *Retired[N]) Begin(t *Twin, root *N) {
	switch {
	case r.by == t:
	case r.empty():
		r.by, r.from, r.mixed = t, root, false
	default:
		r.mixed = true
	}
}

func (r *Retired[N]) empty() bool {
	for i := range r.parts {
		if len(r.parts[i].nodes) > 0 {
			return false
		}
	}
	return true
}

// Add retires nd, which the running update displaced while the other
// handle may still reach it: it waits here, unchanged, for Reclaim.
func (r *Retired[N]) Add(nd *N) {
	p := &r.parts[uintptr(unsafe.Pointer(nd))/64%retiredParts]
	p.mu.Lock()
	p.nodes = append(p.nodes, nd)
	p.mu.Unlock()
}

// Reclaim ends the record at receiver.Adopt(source), before the receiver
// lets go of root, its contents: it hands each retired node to put when
// partners (Adopt's answer) holds, source alone retired them and its
// updates began from root, and otherwise leaves them to the collector.
func (r *Retired[N]) Reclaim(source *Twin, root *N, partners bool, put func(*N)) {
	ok := partners && r.by == source && r.from == root && !r.mixed
	for i := range r.parts {
		p := &r.parts[i]
		if ok {
			for _, nd := range p.nodes {
				put(nd)
			}
		}
		clear(p.nodes)
		p.nodes = p.nodes[:0]
	}
	r.by, r.from, r.mixed = nil, nil, false
}
