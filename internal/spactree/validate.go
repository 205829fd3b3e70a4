package spactree

import (
	"fmt"

	"repro/internal/geom"
)

// Validate checks every invariant of the SPaC/CPAM tree:
//
//  1. BST order on (code, point), with every leaf point's code recomputed
//     under the curve: left subtree <= pivot <= right subtree; inside
//     leaves the order is relaxed iff the sorted flag is false (and in
//     TotalOrder mode the flag must always be true);
//  2. an honest sorted flag (flagged leaves really are sorted);
//  3. BB[α] weight balance at every interior node;
//  4. leaf wrapping: leaves hold at most LeafWrap entries, interiors hold
//     more than LeafWrap points;
//  5. exact sizes and tight bounding boxes;
//  6. generation stamps (cow.go): no node newer than the tree, no child
//     newer than its parent.
//  7. stored codes — every pivot's, and a CPAM leaf's — are the codes of
//     their points.
func (t *tree[S]) Validate() error {
	_, _, _, err := t.validate(t.root, t.Gen)
	return err
}

// validate returns (size, minEntry, maxEntry, err); newest is the stamp
// of whatever holds nd, its parent or the tree.
func (t *tree[S]) validate(nd *node[S], newest uint64) (int, Entry[S], Entry[S], error) {
	var zero Entry[S]
	if nd == nil {
		return 0, zero, zero, nil
	}
	if nd.gen > newest {
		return 0, zero, zero, fmt.Errorf("node of generation %d under generation %d", nd.gen, newest)
	}
	if nd.isLeaf() {
		if nd.size == 0 {
			return 0, zero, zero, fmt.Errorf("empty leaf present")
		}
		if len(nd.pts) != t.blockLen(nd.size) {
			return 0, zero, zero, fmt.Errorf("leaf of %d points with a block of %d", nd.size, len(nd.pts))
		}
		if nd.size > t.opts.LeafWrap {
			return 0, zero, zero, fmt.Errorf("leaf exceeds wrap: %d > %d", nd.size, t.opts.LeafWrap)
		}
		if t.mode == TotalOrder && !nd.sorted {
			return 0, zero, zero, fmt.Errorf("CPAM leaf marked unsorted")
		}
		// A SPaC leaf's codes are recomputed here; a CPAM leaf's are read
		// from its block and must match.
		ents := t.leafEnts(nil, nd, true)
		mn, mx := ents[0], ents[0]
		for i, e := range ents {
			if e.Code != t.encodePacked(e.P).Code {
				return 0, zero, zero, fmt.Errorf("stored code stale for %v", e.P)
			}
			if nd.sorted && i > 0 && cmpEntry(ents[i-1], e) > 0 {
				return 0, zero, zero, fmt.Errorf("leaf flagged sorted but is not")
			}
			if cmpEntry(e, mn) < 0 {
				mn = e
			}
			if cmpEntry(e, mx) > 0 {
				mx = e
			}
		}
		if bbox := geom.PackedBounds(nd.points()); bbox != nd.bbox {
			return 0, zero, zero, fmt.Errorf("leaf bbox stale: %v vs %v", nd.bbox, bbox)
		}
		return nd.size, mn, mx, nil
	}
	if nd.pivot.Code != t.encodePacked(nd.pivot.P).Code {
		return 0, zero, zero, fmt.Errorf("pivot code stale for %v", nd.pivot.P)
	}
	ls, lmn, lmx, err := t.validate(nd.left, nd.gen)
	if err != nil {
		return 0, zero, zero, err
	}
	rs, rmn, rmx, err := t.validate(nd.right, nd.gen)
	if err != nil {
		return 0, zero, zero, err
	}
	if ls > 0 && cmpEntry(lmx, nd.pivot) > 0 {
		return 0, zero, zero, fmt.Errorf("left max %v exceeds pivot %v", lmx, nd.pivot)
	}
	if rs > 0 && cmpEntry(rmn, nd.pivot) < 0 {
		return 0, zero, zero, fmt.Errorf("right min %v below pivot %v", rmn, nd.pivot)
	}
	if nd.size != ls+rs+1 {
		return 0, zero, zero, fmt.Errorf("interior size %d, children+pivot %d", nd.size, ls+rs+1)
	}
	if nd.size <= t.opts.LeafWrap {
		return 0, zero, zero, fmt.Errorf("interior of size %d should be a leaf (wrap %d)", nd.size, t.opts.LeafWrap)
	}
	if !t.likeWeights(weight(nd.left), weight(nd.right)) {
		return 0, zero, zero, fmt.Errorf("weight balance violated: |L|=%d |R|=%d alpha=%.2f",
			sizeOf(nd.left), sizeOf(nd.right), t.opts.Alpha)
	}
	if got := t.interiorBBox(nd.left, nd.pivot, nd.right); got != nd.bbox {
		return 0, zero, zero, fmt.Errorf("interior bbox stale")
	}
	mn, mx := nd.pivot, nd.pivot
	if ls > 0 && cmpEntry(lmn, mn) < 0 {
		mn = lmn
	}
	if rs > 0 && cmpEntry(rmx, mx) > 0 {
		mx = rmx
	}
	return nd.size, mn, mx, nil
}
