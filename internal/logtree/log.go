package logtree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pkdtree"
)

// logBase is the capacity of level 0; level i holds at most logBase<<i
// points. A modest base keeps the forest shallow without hiding the
// logarithmic query overhead the structure exists to demonstrate.
const logBase = 1 << 10

// LogTree is the logarithmic-method kd-tree baseline: a forest of static
// kd-trees with capacities logBase·2^i. Insertions cascade like binary
// addition (a batch update touches at most O(log n) trees, each rebuilt
// from scratch at most once per carry chain); deletions remove points from
// whichever levels hold them, and a global rebuild compacts the forest
// when deletions have hollowed it out.
type LogTree struct {
	dims   int
	levels []*pkdtree.Tree // levels[i] is nil or holds <= logBase<<i points
	size   int
	// built tracks points placed since the last compaction, to decide
	// when deletions warrant a global rebuild.
	peak int
}

var _ core.Index = (*LogTree)(nil)

// NewLog returns an empty Log-tree.
func NewLog(dims int) *LogTree {
	return &LogTree{dims: dims}
}

// Name implements core.Index.
func (t *LogTree) Name() string { return "Log-Tree" }

// Dims implements core.Index.
func (t *LogTree) Dims() int { return t.dims }

// Size implements core.Index.
func (t *LogTree) Size() int { return t.size }

// Levels returns the number of occupied levels (test/bench observable:
// queries touch every one of them).
func (t *LogTree) Levels() int {
	n := 0
	for _, lv := range t.levels {
		if lv != nil {
			n++
		}
	}
	return n
}

func capOf(level int) int { return logBase << level }

// Build implements core.Index: place everything in the smallest level
// that fits (the canonical initial state of the logarithmic method).
func (t *LogTree) Build(pts []geom.Point) {
	t.levels = nil
	t.size = 0
	t.peak = 0
	t.BatchInsert(pts)
}

// BatchInsert implements core.Index: binary-counter carry — gather the
// batch plus every level that must spill, and rebuild one tree at the
// first level whose capacity holds the union.
func (t *LogTree) BatchInsert(pts []geom.Point) {
	if len(pts) == 0 {
		return
	}
	carry := len(pts)
	level := 0
	for ; ; level++ {
		if level < len(t.levels) && t.levels[level] != nil {
			carry += t.levels[level].Size()
			continue
		}
		if carry <= capOf(level) {
			break
		}
	}
	// Gather the spilled levels plus the batch and rebuild at `level`.
	all := make([]geom.Point, 0, carry)
	all = append(all, pts...)
	for i := 0; i < level && i < len(t.levels); i++ {
		if t.levels[i] != nil {
			all = t.levels[i].RangeList(allBox(t.dims), all)
			t.levels[i] = nil
		}
	}
	for len(t.levels) <= level {
		t.levels = append(t.levels, nil)
	}
	tree := pkdtree.NewDefault(t.dims)
	tree.Build(all)
	t.levels[level] = tree
	t.size += len(pts)
	if t.size > t.peak {
		t.peak = t.size
	}
}

// BatchDelete implements core.Index: each request must remove exactly one
// copy across the whole forest, so requests are apportioned to levels by
// counting availability first (a point query per distinct request per
// level — a fair rendition of why deletions are awkward under the
// logarithmic method). A global rebuild compacts the forest once half the
// peak has drained — the classic amortization.
func (t *LogTree) BatchDelete(pts []geom.Point) {
	if len(pts) == 0 || t.size == 0 {
		return
	}
	want := geom.CountPoints(pts)
	for li, lv := range t.levels {
		if lv == nil || len(want) == 0 {
			continue
		}
		var batch []geom.Point
		for p, w := range want {
			c := lv.RangeCount(geom.BoxOf(p, p))
			take := w
			if c < take {
				take = c
			}
			if take == 0 {
				continue
			}
			for i := 0; i < take; i++ {
				batch = append(batch, p)
			}
			if w == take {
				delete(want, p)
			} else {
				want[p] = w - take
			}
		}
		if len(batch) > 0 {
			before := lv.Size()
			lv.BatchDelete(batch)
			t.size -= before - lv.Size()
			if lv.Size() == 0 {
				t.levels[li] = nil
			}
		}
	}
	if t.size*2 < t.peak {
		t.compact()
	}
}

// BatchDiff implements core.Index.
func (t *LogTree) BatchDiff(ins, del []geom.Point) {
	t.BatchDelete(del)
	t.BatchInsert(ins)
}

// compact rebuilds the forest into canonical shape.
func (t *LogTree) compact() {
	all := make([]geom.Point, 0, t.size)
	for _, lv := range t.levels {
		if lv != nil {
			all = lv.RangeList(allBox(t.dims), all)
		}
	}
	t.levels = nil
	t.size = 0
	t.peak = 0
	t.BatchInsert(all)
	// BatchInsert(all) set size/peak as an insertion; normalize.
	t.size = len(all)
	t.peak = t.size
}

// KNN implements core.Index: every occupied level is searched and the
// results merged — the O(log n) multiplier on queries that the paper
// holds against the logarithmic method.
func (t *LogTree) KNN(q geom.Point, k int, dst []geom.Point) []geom.Point {
	h := geom.GetKNNHeap(k)
	bufp := geom.GetPointBuf()
	buf := *bufp
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		buf = lv.KNN(q, k, buf[:0])
		for _, p := range buf {
			h.Push(p, geom.Dist2(p, q, t.dims))
		}
	}
	*bufp = buf
	geom.PutPointBuf(bufp)
	dst = h.Append(dst)
	geom.PutKNNHeap(h)
	return dst
}

// RangeCount implements core.Index.
func (t *LogTree) RangeCount(box geom.Box) int {
	n := 0
	for _, lv := range t.levels {
		if lv != nil {
			n += lv.RangeCount(box)
		}
	}
	return n
}

// RangeList implements core.Index.
func (t *LogTree) RangeList(box geom.Box, dst []geom.Point) []geom.Point {
	for _, lv := range t.levels {
		if lv != nil {
			dst = lv.RangeList(box, dst)
		}
	}
	return dst
}

// Validate checks per-level kd invariants, level capacities, and the size
// bookkeeping.
func (t *LogTree) Validate() error {
	total := 0
	for i, lv := range t.levels {
		if lv == nil {
			continue
		}
		if lv.Size() > capOf(i) {
			return fmt.Errorf("level %d over capacity: %d > %d", i, lv.Size(), capOf(i))
		}
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
		total += lv.Size()
	}
	if total != t.size {
		return errSizeMismatch(total, t.size)
	}
	return nil
}

func errSizeMismatch(got, want int) error {
	return fmt.Errorf("logtree: size bookkeeping mismatch: %d vs %d", got, want)
}

// allBox covers every representable coordinate (used to flatten levels).
func allBox(dims int) geom.Box {
	const big = int64(1) << 62
	var b geom.Box
	for d := 0; d < dims; d++ {
		b.Lo[d], b.Hi[d] = -big, big
	}
	return b
}
