package collection

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"iter"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/geom"
)

// table is a Collection's forward table (ID → point) and reverse multimap
// (point → IDs) in one dense structure. Every live object owns a slot — an
// index into the flat off, pos and next arrays — and two open-addressed,
// linear-probing indexes find slots by ID and by point. The indexes store
// nothing but slots (under a few spare hash bits) and compare through the
// arrays, and the IDs themselves sit in pointer-free byte blocks, so the
// collector scans nothing of the table but the short list of its blocks,
// and an object costs its ID's bytes and a length byte, 16 bytes of slot
// in 2-D (20 in 3-D) and three to five 4-byte buckets.
//
// A position is stored as dims int32 coordinates, the stored range of
// every Collection whatever its index (geom.Packable): 8 bytes in 2-D and
// 12 in 3-D, widened to a geom.Point on the way out (at). The point index
// hashes and compares that stored form.
//
// The IDs sit in an arena of heap blocks, each ID once as a uvarint length
// followed by its bytes (an entry), at the offset off holds for its slot.
// An offset is a uint32 that names a 64 KiB window of the arena (off>>16)
// and a byte in it (off&0xFFFF); wins holds, for each window, its block
// sliced from that window to the block's end, so an entry may run past
// its window but never past its block. The arena is append-only: an insert
// appends, a remove only counts the entry's bytes dead, and no block is
// copied, resized or overwritten, so an ID read out of it (id) is an
// unsafe.String view that stays valid and unchanged for as long as anyone
// holds it — a query's Entry, a checkpoint's iterator — and keeps its
// block alive. When the last block is full the next entry starts a new
// one at the next window: as large as the blocks before it together, at
// least the entry and, unless the entry is larger, at most one window. So
// a growing table allocates its IDs' bytes and at most one window more,
// and leaves no outgrown copy behind. Once at least half of the entry
// bytes are dead, and at least minSpare, a remove copies the live IDs into
// one fresh block in slot order (compact). wins[0][0] is the empty entry,
// which free slots point at.
//
// Slots are stable for an object's lifetime (a move rewrites pos in place)
// and slot 0 is reserved as "none". Objects sharing a point are chained
// through next from the slot the point index holds. A removed object's
// slot is zeroed and recycled through a free list threaded through next
// as well. Deletion from the indexes shifts the rest of the probe run
// back, so there are no tombstones and a table under steady churn never
// degrades or grows.
//
// off, pos, next, byID and byPt live outside the Go heap where the build
// maps them (mapped.go), and a table frees each the moment it stops using
// it: an array outgrown by insert or regrow at once, the rest in release,
// which the table's owner calls when no reader can reach the table any
// more — the Collection in Load's table step for the table Load displaces,
// and through a cleanup once the Collection itself is unreachable. So no
// slice of these arrays may escape the table, and a table is not copied
// except to hand its arrays over whole. The ID blocks stay on the heap:
// their views do escape, and a mapping could be unmapped under one.
type table struct {
	dims int // coordinates per position: 2 or 3
	// wins is the ID arena's window list. end is the offset the next
	// entry goes to, size the bytes of entries appended since the last
	// compaction (the empty one included), dead the share of them that
	// removed IDs hold and held the bytes of the blocks wins reaches.
	wins                  [][]byte
	end, size, dead, held int
	// off is slot → offset of its ID's entry, 0 in free slots.
	off []uint32
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
	// minSpare is the fewest dead bytes a remove compacts the arena for:
	// a table under churn allocates one block per minSpare of IDs removed,
	// at most.
	minSpare = 64 << 10
	// An ID offset's high bits name a window of winSize bytes, its low
	// winBits bits a byte in it.
	winBits = 16
	winSize = 1 << winBits
	winMask = winSize - 1
)

// seedID and seedPt seed the table hashes, per process: IDs and
// coordinates arrive off the socket, and a fixed hash would let a client
// pile them into one probe run.
var seedID, seedPt = maphash.MakeSeed(), maphash.MakeSeed()

func hashID(id string) uint64 { return maphash.String(seedID, id) }

// hashPt hashes p's stored form, its first dims coordinates as int32s.
func hashPt(p geom.Point, dims int) uint64 {
	if dims == 2 {
		return maphash.Comparable(seedPt, geom.Pack[[2]int32](p))
	}
	return maphash.Comparable(seedPt, geom.Pack[[3]int32](p))
}

// newTable returns an empty table of dims-dimensional positions with room
// for n objects.
func newTable(dims, n int) table {
	b := minBuckets
	for n > b/4*3 {
		b *= 2
	}
	t := table{
		dims: dims,
		off:  makeArray[uint32](1, n+1),
		pos:  makeArray[int32](dims, (n+1)*dims),
		next: makeArray[uint32](1, n+1),
		byID: makeArray[uint32](b, b),
		byPt: makeArray[uint32](b, b),
	}
	t.next[0] = freeSlot
	t.addBlock(make([]byte, 1)) // the empty entry
	t.end, t.size = 1, 1
	return t
}

// release frees the table's arrays and empties it; the table must not be
// used again.
func (t *table) release() {
	freeArray(t.off)
	freeArray(t.pos)
	freeArray(t.next)
	freeArray(t.byID)
	freeArray(t.byPt)
	*t = table{}
}

// mapped returns the bytes mapped behind the table's arrays.
func (t *table) mapped() int {
	return arrayBytes(t.off) + arrayBytes(t.pos) + arrayBytes(t.next) + arrayBytes(t.byID) + arrayBytes(t.byPt)
}

// slots returns the number of slots ever handed out: live plus free.
func (t *table) slots() int { return len(t.next) - 1 }

// id returns slot s's ID, "" for a free slot: a view into its block, which
// it keeps alive.
func (t *table) id(s uint32) string {
	o := t.off[s]
	b := t.wins[o>>winBits][o&winMask:]
	n, w := uint64(b[0]), 1
	if n >= 0x80 {
		n, w = binary.Uvarint(b)
	}
	if n == 0 {
		return ""
	}
	return unsafe.String(&b[w], int(n))
}

// entryBytes is what id's entry takes in the arena.
func entryBytes(id string) int { return (bits.Len(uint(len(id))|1)+6)/7 + len(id) }

// putID appends id's entry to the arena and returns its offset.
func (t *table) putID(id string) uint32 {
	need := entryBytes(id)
	if last := len(t.wins) - 1; t.end+need > last<<winBits+len(t.wins[last]) {
		t.grow(need)
	}
	o := t.end
	b := t.wins[o>>winBits][o&winMask:]
	copy(b[binary.PutUvarint(b, uint64(len(id))):], id)
	t.end += need
	t.size += need
	return uint32(o)
}

// grow starts a new block at the next window for an entry of need bytes:
// as large as the blocks before it together, at least need and, unless
// need is more, at most one window.
func (t *table) grow(need int) {
	n, w := max(need, min(t.held, winSize)), len(t.wins)
	if uint64(w)<<winBits+uint64(n) > min(math.MaxUint32, math.MaxInt) {
		panic("collection: more than 4 GiB of live IDs") // offsets are uint32s, and ints on 32-bit systems
	}
	t.addBlock(make([]byte, n))
	t.end = w << winBits
}

// addBlock lists blk's windows after the last ones, each sliced to the
// block's end.
func (t *table) addBlock(blk []byte) {
	for o := 0; o < len(blk); o += winSize {
		t.wins = append(t.wins, blk[o:])
	}
	t.held += len(blk)
}

// compact copies the live IDs into one fresh block in slot order, with
// twice minSpare to spare beyond them, so that the block fills no sooner
// than remove's threshold is reached again: a churning table compacts once
// per minSpare of removed bytes, at most. The old blocks are left as they
// were, for the views still into them; the window list, which no view
// points into, is rewritten in place.
func (t *table) compact() {
	blk := make([]byte, t.size-t.dead+2*minSpare)
	o := 1 // blk[0] is the empty entry
	for s, nx := range t.next {
		if nx&freeSlot == 0 {
			id := t.id(uint32(s))
			t.off[s] = uint32(o)
			o += binary.PutUvarint(blk[o:], uint64(len(id)))
			o += copy(blk[o:], id)
		}
	}
	clear(t.wins) // the old blocks are the views' to keep alive, not the list's
	t.wins, t.held = t.wins[:0], 0
	t.addBlock(blk)
	t.end, t.size, t.dead = o, o, 0
}

// at returns slot s's position, widened to a geom.Point.
func (t *table) at(s uint32) (p geom.Point) {
	for d, c := range t.pos[int(s)*t.dims:][:t.dims] {
		p[d] = int64(c)
	}
	return p
}

// put stores p as slot s's position. p is in the stored range: the
// Collection refuses every other point on the way in.
func (t *table) put(s uint32, p geom.Point) {
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
func (t *table) idHashAt(s uint32) uint64 { return hashID(t.id(s)) }
func (t *table) ptHashAt(s uint32) uint64 { return hashPt(t.at(s), t.dims) }

// lookup resolves id to its slot (0 when id is not live) and returns the
// ID's hash, which insert and remove take.
func (t *table) lookup(id string) (slot uint32, hash uint64) {
	hash = hashID(id)
	return t.slotOf(id, hash), hash
}

// slotOf resolves id, whose hash is hash, to its slot (0 when id is not
// live): a window hashes each ID once, when it is enqueued.
func (t *table) slotOf(id string, hash uint64) uint32 {
	mask := uint32(len(t.byID) - 1)
	tag := tagOf(hash, mask)
	for i := uint32(hash) & mask; ; i = (i + 1) & mask {
		b := t.byID[i]
		if b == 0 {
			return 0
		}
		if s := b & mask; b&^mask == tag && t.id(s) == id {
			return s
		}
	}
}

// get returns id's position; hash is id's.
func (t *table) get(id string, hash uint64) (geom.Point, bool) {
	s := t.slotOf(id, hash)
	return t.at(s), s != 0 // slot 0 is at the zero point
}

// find returns the bucket of byPt that holds p's chain head, or the empty
// bucket where it would go, and p's tag.
func (t *table) find(p geom.Point) (i, tag uint32) {
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
func (t *table) head(p geom.Point) uint32 {
	i, _ := t.find(p)
	return t.byPt[i] & uint32(len(t.byPt)-1)
}

// insert adds id, which must not be live, at p and returns its slot;
// hash is id's, from lookup.
func (t *table) insert(id string, hash uint64, p geom.Point) uint32 {
	if t.live >= len(t.byID)/4*3 {
		if uint64(len(t.byID)) >= freeSlot {
			panic("collection: more than 3·2^29 live objects") // slot numbers would reach the freeSlot bit
		}
		t.byID = regrow(t.byID, t.idHashAt)
		t.byPt = regrow(t.byPt, t.ptHashAt)
	}
	o := t.putID(id) // before the slot: a compaction copies live slots' IDs
	s := t.free
	if s != 0 {
		t.free = t.next[s] &^ freeSlot
	} else {
		s = uint32(len(t.next))
		t.off = extend(t.off, 1)
		t.pos = extend(t.pos, t.dims)
		t.next = extend(t.next, 1)
	}
	t.off[s] = o
	t.live++
	place(t.byID, hash, s)
	t.link(s, p)
	return s
}

// move relocates the object in slot s to p.
func (t *table) move(s uint32, p geom.Point) {
	if t.at(s) == p {
		return
	}
	t.unlink(s)
	t.link(s, p)
}

// remove deletes the object in slot s; hash is its ID's, from lookup.
func (t *table) remove(s uint32, hash uint64) {
	t.unlink(s)
	mask := uint32(len(t.byID) - 1)
	i := uint32(hash) & mask
	for t.byID[i]&mask != s {
		i = (i + 1) & mask
	}
	shiftBack(t.byID, i, t.idHashAt)
	t.dead += entryBytes(t.id(s))
	t.off[s] = 0
	t.put(s, geom.Point{})
	t.next[s] = freeSlot | t.free
	t.free = s
	t.live--
	if t.dead >= minSpare && 2*t.dead >= t.size {
		t.compact()
	}
}

// link records that slot s is at p: it joins p's chain right behind the
// head (so the bucket stays put), or becomes the head of a new one.
func (t *table) link(s uint32, p geom.Point) {
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
func (t *table) unlink(s uint32) {
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
func (t *table) relink() {
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

// regrow returns ix's entries rehashed into an index twice the size, and
// frees ix.
func regrow(ix []uint32, hashOf func(uint32) uint64) []uint32 {
	grown := makeArray[uint32](2*len(ix), 2*len(ix))
	mask := uint32(len(ix) - 1)
	for _, b := range ix {
		if b != 0 {
			place(grown, hashOf(b&mask), b&mask)
		}
	}
	freeArray(ix)
	return grown
}

// all ranges over the live objects in slot order.
func (t *table) all() iter.Seq2[string, geom.Point] {
	return func(yield func(string, geom.Point) bool) {
		for s, nx := range t.next {
			if nx&freeSlot == 0 && !yield(t.id(uint32(s)), t.at(uint32(s))) {
				return
			}
		}
	}
}

// validate checks the table against itself: the two indexes find exactly
// the live slots, the chains partition them by point, the free list holds
// the rest, zeroed, and the arena holds every live slot's entry, the empty
// one free slots point at, and dead bytes as counted.
func (t *table) validate() error {
	if len(t.pos) != t.dims*len(t.next) || len(t.off) != len(t.next) {
		return fmt.Errorf("collection: slot arrays of %d, %d and %d", len(t.off), len(t.pos), len(t.next))
	}
	if len(t.wins) == 0 || len(t.wins[0]) == 0 || t.wins[0][0] != 0 {
		return fmt.Errorf("collection: ID arena of %d windows does not start with the empty entry", len(t.wins))
	}
	live, liveBytes := 0, 0
	for s := 1; s < len(t.next); s++ {
		if t.next[s]&freeSlot != 0 {
			continue
		}
		live++
		o := int(t.off[s])
		var b []byte
		if w := o >> winBits; w < len(t.wins) {
			b = t.wins[w][min(o&winMask, len(t.wins[w])):]
		}
		n, w := binary.Uvarint(b)
		if o == 0 || w <= 0 || n > uint64(len(b)-w) || o+w+int(n) > t.end {
			return fmt.Errorf("collection: slot %d's ID entry at %d runs past its block or the arena's end at %d", s, o, t.end)
		}
		liveBytes += w + int(n)
		if got, _ := t.lookup(t.id(uint32(s))); got != uint32(s) {
			return fmt.Errorf("collection: slot %d holds %q, which the ID index resolves to slot %d", s, t.id(uint32(s)), got)
		}
	}
	if t.dead != t.size-1-liveBytes {
		return fmt.Errorf("collection: %d dead ID bytes counted, %d appended of which %d live", t.dead, t.size, liveBytes)
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
	nFree := 0
	for s := t.free; s != 0; s = t.next[s] &^ freeSlot {
		if nFree++; nFree > t.slots()-live || t.next[s]&freeSlot == 0 {
			return fmt.Errorf("collection: free list runs through live slot %d or loops", s)
		}
		if t.off[s] != 0 || t.at(s) != (geom.Point{}) {
			return fmt.Errorf("collection: free slot %d still holds (the ID at %d, %v)", s, t.off[s], t.at(s))
		}
	}
	if nFree != t.slots()-live {
		return fmt.Errorf("collection: free list holds %d of %d free slots", nFree, t.slots()-live)
	}
	return nil
}
