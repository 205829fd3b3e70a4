package orthtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Validate checks every structural invariant of the P-Orth tree and
// returns the first violation. Tests run it after every mutation:
//
//  1. sizes are consistent with subtree contents;
//  2. bbox is the exact tight bounding box;
//  3. every point lies inside its node's region (the split hierarchy is
//     respected);
//  4. canonical form: a node is interior iff size > LeafWrap and its
//     region is splittable — this is what makes the tree
//     history-independent;
//  5. interior nodes have exactly 2^D child slots and at least one child;
//  6. generation stamps (cow.go): no node newer than the tree, no child
//     newer than its parent.
func (t *Tree) Validate() error {
	_, err := t.validate(t.root, t.opts.Universe, t.gen)
	return err
}

// validate returns the subtree's size; newest is the stamp of whatever
// holds nd, its parent or the tree.
func (t *Tree) validate(nd *node, region geom.Box, newest uint64) (int, error) {
	if nd == nil {
		return 0, nil
	}
	if nd.gen > newest {
		return 0, fmt.Errorf("node of generation %d under generation %d", nd.gen, newest)
	}
	dims := t.opts.Dims
	if nd.isLeaf() {
		if len(nd.pts) != nd.size {
			return 0, fmt.Errorf("leaf size %d != len(pts) %d", nd.size, len(nd.pts))
		}
		if nd.size == 0 {
			return 0, fmt.Errorf("empty leaf node present")
		}
		if nd.size > t.opts.LeafWrap && region.Splittable(dims) {
			return 0, fmt.Errorf("leaf of size %d exceeds wrap %d in splittable region %v",
				nd.size, t.opts.LeafWrap, region)
		}
		bb := geom.BoundingBox(nd.pts, dims)
		if bb != nd.bbox {
			return 0, fmt.Errorf("leaf bbox %v, recomputed %v", nd.bbox, bb)
		}
		for _, p := range nd.pts {
			if !region.Contains(p, dims) {
				return 0, fmt.Errorf("leaf point %v outside region %v", p, region)
			}
		}
		return nd.size, nil
	}
	if len(nd.kids) != t.nway {
		return 0, fmt.Errorf("interior node with %d child slots, want %d", len(nd.kids), t.nway)
	}
	if nd.size <= t.opts.LeafWrap {
		return 0, fmt.Errorf("interior node of size %d should have been flattened (wrap %d)",
			nd.size, t.opts.LeafWrap)
	}
	if !region.Splittable(dims) {
		return 0, fmt.Errorf("interior node over unsplittable region %v", region)
	}
	total := 0
	bbox := geom.EmptyBox(dims)
	for q, c := range nd.kids {
		sz, err := t.validate(c, region.Child(q, dims), nd.gen)
		if err != nil {
			return 0, err
		}
		total += sz
		if c != nil {
			bbox = bbox.Union(c.bbox, dims)
		}
	}
	if total != nd.size {
		return 0, fmt.Errorf("interior size %d, children sum %d", nd.size, total)
	}
	if bbox != nd.bbox {
		return 0, fmt.Errorf("interior bbox %v, recomputed %v", nd.bbox, bbox)
	}
	return total, nil
}

// StructuralEqual reports whether two trees have identical structure and
// identical point multisets per leaf (leaf-internal order is the one
// degree of freedom history independence permits, §5.1.3). Tests use it to
// verify that update-built trees match scratch-built ones.
func StructuralEqual(a, b *Tree) bool {
	if a.opts.Dims != b.opts.Dims || a.opts.Universe != b.opts.Universe {
		return false
	}
	return nodesEqual(a.root, b.root, a.opts.Dims)
}

func nodesEqual(x, y *node, dims int) bool {
	if x == nil || y == nil {
		return x == y
	}
	if x.size != y.size || x.bbox != y.bbox || x.isLeaf() != y.isLeaf() {
		return false
	}
	if x.isLeaf() {
		xs := append([]geom.Point(nil), x.pts...)
		ys := append([]geom.Point(nil), y.pts...)
		sortPts(xs, dims)
		sortPts(ys, dims)
		for i := range xs {
			if xs[i] != ys[i] {
				return false
			}
		}
		return true
	}
	for q := range x.kids {
		if !nodesEqual(x.kids[q], y.kids[q], dims) {
			return false
		}
	}
	return true
}

func sortPts(pts []geom.Point, dims int) {
	sort.Slice(pts, func(i, j int) bool { return geom.Less(pts[i], pts[j], dims) })
}
