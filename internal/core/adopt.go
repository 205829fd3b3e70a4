package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Reclaim at adopt, the one rule both copy-on-write trees follow
// (internal/spactree and internal/orthtree cow.go). Two handles that Adopt
// made a pair share one structure; each update copies the shared nodes on
// the paths it writes, and the originals it displaces stay reachable from
// the other handle, and from that handle's readers, until the other handle
// adopts the updated one. Then nothing reaches them any more: the handle
// that let go of them was the last, and its readers have ended (the
// Adopter contract). So an update retires each shared node it displaces
// into its spare (Retired.Add), and Adopt gives the nodes to the pair's
// free lists (Retired.Reclaim) — never sooner, since until then the
// partner may read them. PAM (Sun, Ferizovic and Blelloch, PPoPP 2018)
// returns persistent nodes to its own allocator the same way, by
// reference counts; here the pair protocol stands in for the counts.
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

// Retired is the record a pair's spare keeps of the shared nodes — N the
// node type — that the updates of one handle — T the tree type — displaced,
// from the handle's first update after an Adopt to the next Adopt of
// either handle. The forked branches of one update add to it at once, each
// node to one of a few lists picked by its address, so that two branches
// seldom wait for the same lock.
type Retired[T, N any] struct {
	by    *T   // the handle whose updates retired the nodes
	from  *N   // its root when the first of them began
	mixed bool // another handle began an update with nodes recorded
	parts [retiredParts]struct {
		mu    sync.Mutex
		nodes []*N
		_     [32]byte // a cache line of its own
	}
}

const retiredParts = 8

// Begin notes an update by handle t, which roots root, about to run.
func (r *Retired[T, N]) Begin(t *T, root *N) {
	switch {
	case r.by == t:
	case r.empty():
		r.by, r.from, r.mixed = t, root, false
	default:
		r.mixed = true
	}
}

func (r *Retired[T, N]) empty() bool {
	for i := range r.parts {
		if len(r.parts[i].nodes) > 0 {
			return false
		}
	}
	return true
}

// Add retires nd, which the running update displaced while the other
// handle may still reach it: it waits here, unchanged, for Reclaim.
func (r *Retired[T, N]) Add(nd *N) {
	p := &r.parts[uintptr(unsafe.Pointer(nd))/64%retiredParts]
	p.mu.Lock()
	p.nodes = append(p.nodes, nd)
	p.mu.Unlock()
}

// Reclaim ends the record at receiver.Adopt(source), before the receiver
// lets go of root, its contents: it hands each retired node to put when
// partners (Adopt's answer) holds, source alone retired them and its
// updates began from root, and otherwise leaves them to the collector.
func (r *Retired[T, N]) Reclaim(source *T, root *N, partners bool, put func(*N)) {
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
