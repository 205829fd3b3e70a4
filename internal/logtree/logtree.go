// Package logtree implements the two parallel kd-tree baselines of
// Yesantharao et al. [62] that the paper discusses (§2.3) and places on
// its Fig. 8 trade-off map using estimated numbers — here they are
// implemented and measured:
//
//   - the BHL-tree: a static parallel kd-tree that handles a batch update
//     by fully rebuilding, paying O((n+m) log(n+m)) per batch;
//   - the Log-tree: the logarithmic method — a forest of static kd-trees
//     with geometrically increasing capacities, where a batch insertion
//     cascades like binary-counter addition and every query must visit up
//     to O(log n) trees. This is precisely the query overhead that makes
//     the paper reject the logarithmic method for its own designs (§1,
//     §2.3).
//
// Both delegate single-tree operations to the Pkd-tree implementation, so
// the comparison against the paper's structures isolates the update
// strategy rather than kd-tree engineering details.
package logtree

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pkdtree"
)

// BHLTree is the full-rebuild kd-tree baseline.
type BHLTree struct {
	dims  int
	store []geom.Point
	kd    *pkdtree.Tree
}

var _ core.Index = (*BHLTree)(nil)

// NewBHL returns an empty BHL-tree.
func NewBHL(dims int) *BHLTree {
	return &BHLTree{dims: dims, kd: pkdtree.NewDefault(dims)}
}

// Name implements core.Index.
func (t *BHLTree) Name() string { return "BHL-Tree" }

// Dims implements core.Index.
func (t *BHLTree) Dims() int { return t.dims }

// Size implements core.Index.
func (t *BHLTree) Size() int { return len(t.store) }

// Build implements core.Index.
func (t *BHLTree) Build(pts []geom.Point) {
	t.store = append(t.store[:0], pts...)
	t.kd.Build(t.store)
}

// BatchInsert implements core.Index — by full rebuild, the BHL-tree's
// defining (and dooming) property.
func (t *BHLTree) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	t.store = append(t.store, pts...)
	t.kd.Build(t.store)
}

// BatchDelete implements core.Index (multiset semantics) — full rebuild.
func (t *BHLTree) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || len(t.store) == 0 {
		return
	}
	t.store = geom.RemoveEach(t.store, pts)
	t.kd.Build(t.store)
}

// BatchDiff implements core.Index with a single rebuild for both halves.
func (t *BHLTree) BatchDiff(ins, del []geom.Point) {
	t.store = append(geom.RemoveEach(t.store, del), ins...)
	t.kd.Build(t.store)
}

// KNN implements core.Index.
func (t *BHLTree) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	return t.kd.KNN(q, k, dst)
}

// RangeCount implements core.Index.
func (t *BHLTree) RangeCount(box geom.Box) int { return t.kd.RangeCount(box) }

// RangeList implements core.Index.
func (t *BHLTree) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	return t.kd.RangeList(box, dst)
}

// Validate checks the underlying kd-tree and the store/tree agreement.
func (t *BHLTree) Validate() error {
	if t.kd.Size() != len(t.store) {
		return errSizeMismatch(t.kd.Size(), len(t.store))
	}
	return t.kd.Validate()
}
