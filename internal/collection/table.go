package collection

import (
	"fmt"
	"hash/maphash"
	"iter"

	"repro/internal/geom"
)

// table is a Collection's forward table (ID → point) and reverse multimap
// (point → IDs) in one dense structure. Every live object owns a slot — an
// index into the flat name, pos and next arrays — and two open-addressed,
// linear-probing indexes find slots by ID and by point. The indexes store
// nothing but slots (under a few spare hash bits) and compare through the
// arrays, so apart from name the whole table is pointer-free: the
// collector never scans it, and an object costs its ID, 12 bytes of slot
// in 2-D (16 in 3-D) and three to five 4-byte buckets.
//
// A position is stored as dims int32 coordinates, the stored range of
// every Collection whatever its index (geom.Packable): 8 bytes in 2-D and
// 12 in 3-D, widened to a geom.Point on the way out (at). The point index
// hashes and compares that stored form.
//
// Slots are stable for an object's lifetime (a move rewrites pos in place)
// and slot 0 is reserved as "none". Objects sharing a point are chained
// through next from the slot the point index holds. A removed object's
// slot is zeroed — the table must not pin a departed ID — and recycled
// through a free list threaded through next as well. Deletion from the
// indexes shifts the rest of the probe run back, so there are no
// tombstones and a table under steady churn never degrades or grows.
type table[ID comparable] struct {
	dims int  // coordinates per position: 2 or 3
	name []ID // slot → owner; the zero ID in free slots
	// pos holds slot s's position at pos[s*dims:][:dims]; the zero point
	// in free slots.
	pos []int32
	// next is, for a live slot, the next slot at the same point (0 ends
	// the chain); for a free slot, freeSlot | the next free slot. Slot 0
	// is marked free so that a scan for live slots skips it unasked.
	next []uint32
	free uint32 // head of the free list, 0 when empty
	live int    // live objects: slots in use

	// byID holds every live slot, byPt the chain head of every occupied
	// point; 0 is an empty bucket. Both have the same power-of-two size,
	// kept above 4/3 of the live count, so a slot number always fits under
	// the size and the bits of a bucket above it are free to carry a tag —
	// high bits of the key's hash — that lets a probe pass over other
	// keys' buckets without touching the arrays.
	byID, byPt []uint32
	// unlinked: link and unlink leave byPt and the chains to a later relink.
	unlinked bool
}

const (
	freeSlot = 1 << 31 // set in next[s] while slot s is free
	// minBuckets is the smallest index; a power of two, like every size.
	minBuckets = 8
)

// seedID and seedPt seed the table hashes, per process: IDs and
// coordinates arrive off the socket, and a fixed hash would let a client
// pile them into one probe run.
var seedID, seedPt = maphash.MakeSeed(), maphash.MakeSeed()

func hashID[ID comparable](id ID) uint64 { return maphash.Comparable(seedID, id) }

// hashPt hashes p's stored form, its first dims coordinates as int32s.
func hashPt(p geom.Point, dims int) uint64 {
	if dims == 2 {
		return maphash.Comparable(seedPt, geom.Pack[[2]int32](p))
	}
	return maphash.Comparable(seedPt, geom.Pack[[3]int32](p))
}

// newTable returns an empty table of dims-dimensional positions with room
// for n objects.
func newTable[ID comparable](dims, n int) table[ID] {
	b := minBuckets
	for n > b/4*3 {
		b *= 2
	}
	t := table[ID]{
		dims: dims,
		name: make([]ID, 1, n+1),
		pos:  make([]int32, dims, (n+1)*dims),
		next: make([]uint32, 1, n+1),
		byID: make([]uint32, b),
		byPt: make([]uint32, b),
	}
	t.next[0] = freeSlot
	return t
}

// slots returns the number of slots ever handed out: live plus free.
func (t *table[ID]) slots() int { return len(t.name) - 1 }

// at returns slot s's position, widened to a geom.Point.
func (t *table[ID]) at(s uint32) (p geom.Point) {
	for d, c := range t.pos[int(s)*t.dims:][:t.dims] {
		p[d] = int64(c)
	}
	return p
}

// put stores p as slot s's position. p is in the stored range: the
// Collection refuses every other point on the way in.
func (t *table[ID]) put(s uint32, p geom.Point) {
	c := t.pos[int(s)*t.dims:][:t.dims]
	for d := range c {
		c[d] = int32(p[d])
	}
}

// A key's home bucket is the low bits of its hash; its tag is the high
// half, less the bits the slot number occupies.
func tagOf(hash uint64, mask uint32) uint32 { return uint32(hash>>32) &^ mask }

// idHashAt and ptHashAt hash the key a live slot is indexed under; they
// are what shiftBack and regrow rehash entries with.
func (t *table[ID]) idHashAt(s uint32) uint64 { return hashID(t.name[s]) }
func (t *table[ID]) ptHashAt(s uint32) uint64 { return hashPt(t.at(s), t.dims) }

// lookup resolves id to its slot (0 when id is not live) and returns the
// ID's hash, which insert and remove take so that a window hashes each ID
// once, when it is planned.
func (t *table[ID]) lookup(id ID) (slot uint32, hash uint64) {
	hash = hashID(id)
	mask := uint32(len(t.byID) - 1)
	tag := tagOf(hash, mask)
	for i := uint32(hash) & mask; ; i = (i + 1) & mask {
		b := t.byID[i]
		if b == 0 {
			return 0, hash
		}
		if s := b & mask; b&^mask == tag && t.name[s] == id {
			return s, hash
		}
	}
}

// get returns id's position.
func (t *table[ID]) get(id ID) (geom.Point, bool) {
	s, _ := t.lookup(id)
	return t.at(s), s != 0 // slot 0 is at the zero point
}

// find returns the bucket of byPt that holds p's chain head, or the empty
// bucket where it would go, and p's tag.
func (t *table[ID]) find(p geom.Point) (i, tag uint32) {
	hash := hashPt(p, t.dims)
	mask := uint32(len(t.byPt) - 1)
	tag = tagOf(hash, mask)
	for i = uint32(hash) & mask; ; i = (i + 1) & mask {
		b := t.byPt[i]
		if b == 0 || (b&^mask == tag && t.at(b&mask) == p) {
			return i, tag
		}
	}
}

// head returns the first slot at p, 0 when no object is there; the other
// objects at p follow through next.
func (t *table[ID]) head(p geom.Point) uint32 {
	i, _ := t.find(p)
	return t.byPt[i] & uint32(len(t.byPt)-1)
}

// insert adds id, which must not be live, at p and returns its slot;
// hash is id's, from lookup.
func (t *table[ID]) insert(id ID, hash uint64, p geom.Point) uint32 {
	if t.live >= len(t.byID)/4*3 {
		if len(t.byID) >= freeSlot {
			panic("collection: more than 3·2^29 live objects") // slot numbers would reach the freeSlot bit
		}
		t.byID = regrow(t.byID, t.idHashAt)
		t.byPt = regrow(t.byPt, t.ptHashAt)
	}
	s := t.free
	if s != 0 {
		t.free = t.next[s] &^ freeSlot
		t.name[s] = id
	} else {
		s = uint32(len(t.name))
		t.name = append(t.name, id)
		t.pos = append(t.pos, make([]int32, t.dims)...)
		t.next = append(t.next, 0)
	}
	t.live++
	place(t.byID, hash, s)
	t.link(s, p)
	return s
}

// move relocates the object in slot s to p.
func (t *table[ID]) move(s uint32, p geom.Point) {
	if t.at(s) == p {
		return
	}
	t.unlink(s)
	t.link(s, p)
}

// remove deletes the object in slot s; hash is its ID's, from lookup.
func (t *table[ID]) remove(s uint32, hash uint64) {
	t.unlink(s)
	mask := uint32(len(t.byID) - 1)
	i := uint32(hash) & mask
	for t.byID[i]&mask != s {
		i = (i + 1) & mask
	}
	shiftBack(t.byID, i, t.idHashAt)
	var none ID
	t.name[s] = none
	t.put(s, geom.Point{})
	t.next[s] = freeSlot | t.free
	t.free = s
	t.live--
}

// link records that slot s is at p: it joins p's chain right behind the
// head (so the bucket stays put), or becomes the head of a new one.
func (t *table[ID]) link(s uint32, p geom.Point) {
	t.put(s, p)
	if t.unlinked {
		t.next[s] = 0 // live, which is all relink reads of it
		return
	}
	mask := uint32(len(t.byPt) - 1)
	i, tag := t.find(p)
	if h := t.byPt[i] & mask; h != 0 {
		t.next[s], t.next[h] = t.next[h], s
		return
	}
	t.byPt[i], t.next[s] = tag|s, 0
}

// unlink takes slot s out of the chain of the point it is at.
func (t *table[ID]) unlink(s uint32) {
	if t.unlinked {
		return
	}
	mask := uint32(len(t.byPt) - 1)
	i, tag := t.find(t.at(s))
	h := t.byPt[i] & mask
	switch {
	case h != s:
		for t.next[h] != s {
			h = t.next[h]
		}
		t.next[h] = t.next[s]
	case t.next[s] != 0:
		t.byPt[i] = tag | t.next[s]
	default:
		shiftBack(t.byPt, i, t.ptHashAt)
	}
}

// relink rebuilds the point index and the chains from pos in one pass: per
// slot a quarter of what unlink and link, two cache misses each, cost per
// object moved, so a window over more than that share of the table ends here.
func (t *table[ID]) relink() {
	t.unlinked = false
	clear(t.byPt)
	for s, nx := range t.next {
		if nx&freeSlot == 0 {
			t.link(uint32(s), t.at(uint32(s)))
		}
	}
}

// place puts slot s, whose key hashes to hash, into the first empty
// bucket of ix from its home on.
func place(ix []uint32, hash uint64, s uint32) {
	mask := uint32(len(ix) - 1)
	i := uint32(hash) & mask
	for ix[i] != 0 {
		i = (i + 1) & mask
	}
	ix[i] = tagOf(hash, mask) | s
}

// shiftBack empties bucket i of ix and closes the gap: each later entry
// of the probe run moves back into it unless that would carry the entry
// in front of its home bucket. hashOf hashes the key of a slot.
func shiftBack(ix []uint32, i uint32, hashOf func(uint32) uint64) {
	mask := uint32(len(ix) - 1)
	for j := (i + 1) & mask; ix[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i iff its home is not in
		// the cyclic range (i, j].
		if home := uint32(hashOf(ix[j] & mask)); (j-home)&mask >= (j-i)&mask {
			ix[i] = ix[j]
			i = j
		}
	}
	ix[i] = 0
}

// regrow returns ix's entries rehashed into an index twice the size.
func regrow(ix []uint32, hashOf func(uint32) uint64) []uint32 {
	grown := make([]uint32, 2*len(ix))
	mask := uint32(len(ix) - 1)
	for _, b := range ix {
		if b != 0 {
			place(grown, hashOf(b&mask), b&mask)
		}
	}
	return grown
}

// all ranges over the live objects in slot order.
func (t *table[ID]) all() iter.Seq2[ID, geom.Point] {
	return func(yield func(ID, geom.Point) bool) {
		for s, nx := range t.next {
			if nx&freeSlot == 0 && !yield(t.name[s], t.at(uint32(s))) {
				return
			}
		}
	}
}

// validate checks the table against itself: the two indexes find exactly
// the live slots, the chains partition them by point, and the free list
// holds the rest, zeroed.
func (t *table[ID]) validate() error {
	if len(t.pos) != t.dims*len(t.name) || len(t.next) != len(t.name) {
		return fmt.Errorf("collection: slot arrays of %d, %d and %d", len(t.name), len(t.pos), len(t.next))
	}
	live := 0
	for s := 1; s < len(t.next); s++ {
		if t.next[s]&freeSlot != 0 {
			continue
		}
		live++
		if got, _ := t.lookup(t.name[s]); got != uint32(s) {
			return fmt.Errorf("collection: slot %d holds %v, which the ID index resolves to slot %d", s, t.name[s], got)
		}
	}
	if live != t.live {
		return fmt.Errorf("collection: %d live slots, %d counted", live, t.live)
	}
	if len(t.byPt) != len(t.byID) || live > len(t.byID)/4*3 {
		return fmt.Errorf("collection: indexes of %d and %d buckets for %d live objects", len(t.byID), len(t.byPt), live)
	}
	ids := 0
	for _, b := range t.byID {
		if b != 0 {
			ids++
		}
	}
	if ids != live {
		return fmt.Errorf("collection: ID index holds %d entries, %d live objects", ids, live)
	}
	chained := 0
	mask := uint32(len(t.byPt) - 1)
	for _, b := range t.byPt {
		if b == 0 {
			continue
		}
		h := b & mask
		if got := t.head(t.at(h)); got != h {
			return fmt.Errorf("collection: point %v heads at slot %d, resolves to slot %d", t.at(h), h, got)
		}
		for s := h; s != 0; s = t.next[s] {
			if chained++; chained > live || t.next[s]&freeSlot != 0 {
				return fmt.Errorf("collection: chain of %v runs through free or foreign slot %d", t.at(h), s)
			}
			if t.at(s) != t.at(h) {
				return fmt.Errorf("collection: slot %d at %v is chained under %v", s, t.at(s), t.at(h))
			}
		}
	}
	if chained != live {
		return fmt.Errorf("collection: reverse chains hold %d objects, %d live", chained, live)
	}
	var none ID
	nFree := 0
	for s := t.free; s != 0; s = t.next[s] &^ freeSlot {
		if nFree++; nFree > t.slots()-live || t.next[s]&freeSlot == 0 {
			return fmt.Errorf("collection: free list runs through live slot %d or loops", s)
		}
		if t.name[s] != none || t.at(s) != (geom.Point{}) {
			return fmt.Errorf("collection: free slot %d still holds (%v, %v)", s, t.name[s], t.at(s))
		}
	}
	if nFree != t.slots()-live {
		return fmt.Errorf("collection: free list holds %d of %d free slots", nFree, t.slots()-live)
	}
	return nil
}
