package core

import "slices"

// Leaf blocks of the trees whose leaves keep their points in a slice (the
// SPaC family and P-Orth). A block belongs to one leaf — no two leaves
// share an array — and is sized to what the leaf holds: it grows by about
// an eighth at a time, never past the leaf wrap, and a delete that leaves
// the leaf filling less than half of it moves the leaf into a fitted one.
// append's doubling would instead leave a tree at steady size with blocks
// its leaves can never fill.

// GrowBlock returns blk with room for extra more elements: blk itself when
// it has the room, otherwise a copy in a new block about an eighth larger
// than the elements it must hold, but no larger than limit unless they
// need more.
func GrowBlock[E any](blk []E, extra, limit int) []E {
	need := len(blk) + extra
	if need <= cap(blk) {
		return blk
	}
	return append(make([]E, 0, max(need, min(limit, need+need/8+1))), blk...)
}

// FitBlock returns blk moved into a block of its own length when it fills
// less than half of the one it is in, and blk itself otherwise.
func FitBlock[E any](blk []E) []E {
	if 2*len(blk) < cap(blk) {
		return slices.Clone(blk)
	}
	return blk
}
