// Package shard implements Sharded, a space-partitioned fan-out layer
// over any core.Index: the universe is carved into S compact regions, each
// region owns an independent index, a batch update is partitioned by
// region and applied to all shards concurrently, and queries fan out only
// to the shards whose region can contribute. Where the paper's indexes
// parallelize *inside* one tree, Sharded adds the orthogonal axis —
// parallelism *across* indexes within one batch. It is an index, not a
// concurrency control: like the indexes under it, it is batch-synchronous,
// and the Collection in front of it owns reader isolation.
//
// The partitioning is the two-level partition-then-local-index design: a
// fine cell grid over the universe whose cells are ordered by their
// Hilbert code and split into S contiguous runs. The curve keeps each run
// geometrically compact, so query pruning stays effective; Build
// rebalances the run boundaries to equalize *point* counts (equi-depth),
// which is what keeps clustered (Varden-like) data from piling into one
// shard.
package shard

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/sfc"
)

// partition is the immutable cell-grid → shard mapping. Sharded swaps the
// whole value on Build (rebalancing), so the views pinned from a Sharded
// can share it.
type partition struct {
	dims     int
	universe geom.Box
	shards   int

	level uint                // bits per dimension: 1<<level cells per axis
	ext1  [geom.MaxDims]int64 // universe extent + 1 per dimension

	// order lists all cell ids (row-major) in curve order; bounds[i] is
	// the start of shard i's run in order (bounds[shards] == len(order)).
	order  []int32
	bounds []int

	cellShard []uint16   // row-major cell id -> shard
	regions   []geom.Box // per shard: union box of its cells (for pruning)
}

// The grid carries ~S * cellsPerShard cells — enough per shard that
// equi-depth rebalancing has room to move boundaries — within
// [minCells, maxCells]: a floor so clustered data can be split even at low
// shard counts (cells far outnumber shards), a ceiling so per-cell tables
// stay small regardless of the shard count requested.
const (
	cellsPerShard = 16
	minCells      = 1 << 14
	maxCells      = 1 << 16
)

// newPartition builds the cell grid for the given shard count, cells in
// Hilbert order, with the default equal-cell-count run boundaries.
func newPartition(dims int, universe geom.Box, shards int) *partition {
	p := &partition{dims: dims, universe: universe, shards: shards}
	for d := 0; d < dims; d++ {
		p.ext1[d] = universe.Side(d) + 1
	}
	// Pick the finest level whose total cell count stays within both the
	// table budget and ~cellsPerShard cells per shard.
	target := shards * cellsPerShard
	if target < minCells {
		target = minCells
	}
	if target > maxCells {
		target = maxCells
	}
	for (1 << ((p.level + 1) * uint(dims))) <= target {
		p.level++
	}
	cells := 1 << (p.level * uint(dims))

	p.order = make([]int32, cells)
	for c := range p.order {
		p.order[c] = int32(c)
	}
	keys := make([]uint64, cells)
	for c := 0; c < cells; c++ {
		keys[c] = cellKey(p.cellCoords(c), dims)
	}
	sort.Slice(p.order, func(i, j int) bool {
		return keys[p.order[i]] < keys[p.order[j]]
	})
	p.cellShard = make([]uint16, cells)
	p.regions = make([]geom.Box, shards)
	p.bounds = make([]int, shards+1)
	for i := 0; i <= shards; i++ {
		p.bounds[i] = i * cells / shards
	}
	p.applyBounds()
	return p
}

// rebalanced returns a copy of p whose run boundaries are chosen so each
// shard's run carries ~total/shards of the given per-cell point counts
// (indexed by row-major cell id) — the equi-depth split that keeps skewed
// data balanced. With an all-zero histogram the equal-cell split is kept.
func (p *partition) rebalanced(counts []int) *partition {
	total := 0
	for _, c := range counts {
		total += c
	}
	q := &partition{
		dims: p.dims, universe: p.universe, shards: p.shards,
		level: p.level, ext1: p.ext1, order: p.order,
		cellShard: make([]uint16, len(p.cellShard)),
		regions:   make([]geom.Box, p.shards),
		bounds:    make([]int, p.shards+1),
	}
	if total == 0 {
		copy(q.bounds, p.bounds)
		q.applyBounds()
		return q
	}
	// Walk cells in curve order, cutting each time the running mass
	// reaches the next shard's quota (rounded up, so a cut implies the
	// run holds at least one point when any mass remains). Every shard
	// keeps at least one cell so regions stay non-degenerate.
	cells := len(p.order)
	acc, next := 0, 1
	for i, c := range p.order {
		if next < p.shards && acc >= (next*total+p.shards-1)/p.shards && cells-i >= p.shards-next+1 {
			q.bounds[next] = i
			next++
		}
		acc += counts[c]
	}
	for ; next < p.shards; next++ {
		q.bounds[next] = cells - (p.shards - next)
	}
	q.bounds[p.shards] = cells
	q.applyBounds()
	return q
}

// applyBounds fills cellShard and regions from bounds.
func (p *partition) applyBounds() {
	for s := 0; s < p.shards; s++ {
		region := geom.EmptyBox(p.dims)
		for _, c := range p.order[p.bounds[s]:p.bounds[s+1]] {
			p.cellShard[c] = uint16(s)
			if b := p.cellBox(int(c)); !b.IsEmpty() {
				region = region.Union(b, p.dims)
			}
		}
		p.regions[s] = region
	}
}

// shardOf maps a point (which must lie inside the universe, the
// library-wide precondition for space-partitioning indexes) to its shard.
func (p *partition) shardOf(pt geom.Point) int {
	return int(p.cellShard[p.cellOf(pt)])
}

// cellOf maps a point to its row-major grid cell id. Coordinates are
// clamped to the grid so boundary arithmetic can never index out of
// range.
func (p *partition) cellOf(pt geom.Point) int {
	idx := 0
	for d := p.dims - 1; d >= 0; d-- {
		c := (pt[d] - p.universe.Lo[d]) << p.level / p.ext1[d]
		if c < 0 {
			c = 0
		} else if c >= int64(1)<<p.level {
			c = int64(1)<<p.level - 1
		}
		idx = idx<<p.level | int(c)
	}
	return idx
}

// cellCoords decomposes a row-major cell id into per-dimension cell
// coordinates.
func (p *partition) cellCoords(c int) [geom.MaxDims]uint32 {
	var out [geom.MaxDims]uint32
	mask := 1<<p.level - 1
	for d := 0; d < p.dims; d++ {
		out[d] = uint32(c & mask)
		c >>= p.level
	}
	return out
}

// cellBox returns the exact region of a cell: the per-dimension interval
// [ceil(c*ext1/n), ceil((c+1)*ext1/n)-1], which is precisely the set of
// coordinates shardOf maps to cell index c. Cells beyond a tiny universe
// extent come back empty.
func (p *partition) cellBox(c int) geom.Box {
	cc := p.cellCoords(c)
	n := int64(1) << p.level
	var b geom.Box
	for d := 0; d < p.dims; d++ {
		lo := (int64(cc[d])*p.ext1[d] + n - 1) / n
		hi := (int64(cc[d]+1)*p.ext1[d]+n-1)/n - 1
		b.Lo[d] = p.universe.Lo[d] + lo
		b.Hi[d] = p.universe.Lo[d] + hi
	}
	return b
}

// cellKey is a cell's position on the Hilbert curve over the grid.
func cellKey(cc [geom.MaxDims]uint32, dims int) uint64 {
	if dims == 2 {
		return sfc.Hilbert2(cc[0], cc[1])
	}
	return sfc.Hilbert3(cc[0], cc[1], cc[2])
}
