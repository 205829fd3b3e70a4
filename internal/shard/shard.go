package shard

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// MaxShards bounds Options.Shards (cell ids are staged in uint16 tables
// and every shard carries a full index; thousands of shards is already
// far past the useful range).
const MaxShards = 4096

// Options configures a Sharded index. Zero fields take defaults; Dims,
// Universe and New are required.
type Options struct {
	// Dims is the dimensionality, 2 or 3.
	Dims int
	// Universe is the root region being partitioned. It must cover all
	// points, the library-wide precondition for space-partitioning
	// indexes.
	Universe geom.Box
	// Shards is the number of regions S. <= 0 selects GOMAXPROCS, one
	// shard per core.
	Shards int
	// New constructs one shard's index. It is called once per shard with
	// the full universe (shard indexes may receive any in-universe point
	// after a rebalance, and space-partitioning children need the
	// universe fixed for history independence).
	New func(dims int, universe geom.Box) core.Index
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	return o
}

// validate panics on programmer error, matching core.Options.Validate.
func (o Options) validate() {
	if o.Dims != 2 && o.Dims != 3 {
		panic(fmt.Sprintf("shard: unsupported Dims %d", o.Dims))
	}
	if o.Universe.IsEmpty() {
		panic("shard: Universe must be non-empty")
	}
	if o.Shards > MaxShards {
		panic(fmt.Sprintf("shard: Shards %d exceeds MaxShards %d", o.Shards, MaxShards))
	}
	if o.New == nil {
		panic("shard: New (shard index constructor) is required")
	}
}

// Sharded partitions the universe into S regions, each owning an
// independent core.Index. It implements core.Index and is, like every
// Index, batch-synchronous: one goroutine mutates it at a time and no
// query overlaps a mutation, while queries may overlap one another. What
// it adds is parallelism inside a batch — the sub-batches of different
// regions apply concurrently — and queries that visit only the shards
// that can contribute.
//
// Concurrent use is the front-end's: a Collection holds the Sharded
// behind its version cell (see the "Scaling out" section of
// the README). Over copy-on-write children (core.Versioned: the SPaC
// family and P-Orth) the front-end's snapshot reads pin read-only views of
// the Sharded — a Sharded over a view of every shard's tree and the
// partition as it was — and read the published one (ARCHITECTURE.md
// "Epochs & snapshot reads"); over any other family Pin returns nil and
// the front-end reads under its lock.
type Sharded struct {
	opts Options

	// part is swapped whole by Build (rebalancing); a view keeps the one
	// it was pinned with.
	part   *partition
	shards []core.Index
	// childName is the shard index family's name, for Name.
	childName string
	// cow is every shard's index as a core.Versioned, in shard order, or
	// nil when the family is not copy-on-write; fixed at construction,
	// like the indexes themselves.
	cow []core.Versioned
	// of is, on a view, the Sharded that pinned it; views are the writer's
	// unpinned views, which its next Pins hand out again.
	of    *Sharded
	views []*Sharded

	// diff is BatchDiff's partitioning scratch (there is one writer);
	// queryPool recycles the query fan-out scratch, which concurrent
	// readers each borrow.
	diff      diffScratch
	queryPool sync.Pool
}

var _ core.Index = (*Sharded)(nil)
var _ core.Versioned = (*Sharded)(nil)
var _ core.Bounded = (*Sharded)(nil)

// New returns an empty Sharded index.
func New(opts Options) *Sharded {
	opts = opts.withDefaults()
	opts.validate()
	return newSharded(opts)
}

// newSharded builds the index from opts, which must already carry
// defaults and have been validated.
func newSharded(opts Options) *Sharded {
	s := &Sharded{
		opts:   opts,
		part:   newPartition(opts.Dims, opts.Universe, opts.Shards),
		shards: make([]core.Index, opts.Shards),
	}
	s.queryPool.New = func() any { return new(queryScratch) }
	cow := make([]core.Versioned, 0, len(s.shards))
	for i := range s.shards {
		child := opts.New(opts.Dims, opts.Universe)
		s.shards[i] = child
		s.childName = child.Name() // the same for every shard
		if a, ok := child.(core.Versioned); ok {
			cow = append(cow, a)
		}
	}
	if len(cow) == len(s.shards) {
		s.cow = cow
	}
	return s
}

// Pin implements core.Versioned when the shard family does: a Sharded
// over a view of every shard's index and the partition — immutable,
// swapped whole by Build — in O(S), and without allocating once a view has
// been unpinned. It returns nil over any other family.
func (s *Sharded) Pin() core.Index {
	s.mustWrite()
	if s.cow == nil {
		return nil
	}
	var v *Sharded
	if n := len(s.views); n > 0 {
		v, s.views = s.views[n-1], s.views[:n-1]
	} else {
		v = &Sharded{opts: s.opts, shards: make([]core.Index, len(s.shards)), childName: s.childName, of: s}
		v.queryPool.New = s.queryPool.New
	}
	for i, a := range s.cow {
		if v.shards[i] = a.Pin(); v.shards[i] == nil {
			s.cow = nil // composite children that cannot pin
			return nil
		}
	}
	v.part = s.part
	return v
}

// Unpin implements core.Versioned: every shard's index unpins its view.
func (s *Sharded) Unpin(v core.Index) {
	o, ok := v.(*Sharded)
	if !ok || o.of != s {
		panic("shard: Unpin of an index that is not a view of this Sharded")
	}
	for i, a := range s.cow {
		a.Unpin(o.shards[i])
		o.shards[i] = nil
	}
	o.part = nil
	s.views = append(s.views, o)
}

// Current implements core.Versioned: v is a view of s whose every shard
// is a current view of its counterpart, over s's partition.
func (s *Sharded) Current(v core.Index) bool {
	o, ok := v.(*Sharded)
	if !ok || o.of != s || o.part != s.part {
		return false
	}
	for i, a := range s.cow {
		if !a.Current(o.shards[i]) {
			return false
		}
	}
	return true
}

// Copied implements core.Versioned: the shards' totals, summed. The shard
// indexes are fixed and keep their counts atomically, so a scrape may call
// it at any time.
func (s *Sharded) Copied() (nodes, bytes uint64) {
	for _, a := range s.cow {
		n, b := a.Copied()
		nodes += n
		bytes += b
	}
	return nodes, bytes
}

// Name implements core.Index.
func (s *Sharded) Name() string {
	// H: the regions are Hilbert ranges of the cell grid.
	return fmt.Sprintf("Sharded[%dH](%s)", s.opts.Shards, s.childName)
}

// Dims implements core.Index.
func (s *Sharded) Dims() int { return s.opts.Dims }

// Universe implements core.Bounded: the region the shards partition.
func (s *Sharded) Universe() geom.Box { return s.opts.Universe }

// Shards returns the shard count S.
func (s *Sharded) Shards() int { return s.opts.Shards }

// Size implements core.Index.
func (s *Sharded) Size() int {
	total := 0
	for _, idx := range s.shards {
		total += idx.Size()
	}
	return total
}

// ShardSizes appends each shard's point count to dst (load-balance
// introspection for the benchmarks and tests).
func (s *Sharded) ShardSizes(dst []int) []int {
	for _, idx := range s.shards {
		dst = append(dst, idx.Size())
	}
	return dst
}

// Build implements core.Index: it replaces the contents with pts. Build
// first rebalances the region boundaries so every shard receives
// ~len(pts)/S points (equi-depth over the cell histogram), then builds all
// shard indexes in parallel.
func (s *Sharded) Build(pts []geom.Point) {
	s.mustWrite()
	s.part = s.part.rebalanced(s.cellHistogram(pts))
	part := s.part
	scratch := make([]geom.Point, len(pts))
	offsets := parallel.Sieve(pts, scratch, part.shards, part.shardOf)
	parallel.ForEach(part.shards, 1, func(i int) {
		s.shards[i].Build(scratch[offsets[i]:offsets[i+1]])
	})
}

// mustWrite panics on a view: a pinned view is read-only.
func (s *Sharded) mustWrite() {
	if s.of != nil {
		panic("shard: a pinned view is read-only")
	}
}

// cellHistogram counts pts per grid cell (row-major ids) in parallel.
// The block grain is chosen so the per-block count arrays (one int per
// cell) stay bounded no matter how large the build is.
func (s *Sharded) cellHistogram(pts []geom.Point) []int {
	part := s.part
	cells := len(part.cellShard)
	grain := parallel.DefaultGrain
	if g := (len(pts) + 63) / 64; g > grain {
		grain = g
	}
	nb := parallel.NumBlocks(len(pts), grain)
	if nb <= 1 {
		counts := make([]int, cells)
		for _, p := range pts {
			counts[part.cellOf(p)]++
		}
		return counts
	}
	partial := make([][]int, nb)
	parallel.Blocks(len(pts), grain, func(lo, hi int) {
		counts := make([]int, cells)
		for _, p := range pts[lo:hi] {
			counts[part.cellOf(p)]++
		}
		partial[lo/grain] = counts
	})
	counts := make([]int, cells)
	for _, row := range partial {
		for c, v := range row {
			counts[c] += v
		}
	}
	return counts
}

// BatchInsert implements core.Index: the batch is partitioned by shard in
// parallel and all per-shard sub-batches apply concurrently.
func (s *Sharded) BatchInsert(pts []geom.Point) { s.BatchDiff(pts, nil) }

// BatchDelete implements core.Index.
func (s *Sharded) BatchDelete(pts []geom.Point) { s.BatchDiff(nil, pts) }

// diffScratch is BatchDiff's partitioning state: the reordered point
// buffers plus the sieve scratch for each side, kept on the Sharded so a
// steady stream of flush-sized diffs allocates nothing. The per-shard
// sub-batches handed to the children are sub-slices of these buffers,
// which is legal because core.Index implementations must not retain batch
// slices after the call returns (see the Index contract).
type diffScratch struct {
	ins, del []geom.Point
	insSieve parallel.SieveScratch
	delSieve parallel.SieveScratch
}

func grown(buf []geom.Point, n int) []geom.Point {
	if cap(buf) < n {
		return make([]geom.Point, n)
	}
	return buf[:n]
}

// BatchDiff implements core.Index. A point's deletes and inserts land on
// the same shard (assignment is by location), so applying every shard's
// sub-diff independently preserves the BatchDiff contract exactly, and
// sub-diffs for different shards run with no contention at all.
func (s *Sharded) BatchDiff(ins, del []geom.Point) {
	s.mustWrite()
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	part := s.part
	sc := &s.diff
	sc.ins = grown(sc.ins, len(ins))
	sc.del = grown(sc.del, len(del))
	var insOff, delOff []int
	parallel.DoIf(len(ins) >= 512 && len(del) >= 512,
		func() { insOff = parallel.SieveWith(&sc.insSieve, ins, sc.ins, part.shards, part.shardOf) },
		func() { delOff = parallel.SieveWith(&sc.delSieve, del, sc.del, part.shards, part.shardOf) },
	)
	parallel.ForEach(part.shards, 1, func(i int) {
		subIns, subDel := sc.ins[insOff[i]:insOff[i+1]], sc.del[delOff[i]:delOff[i+1]]
		if len(subIns) == 0 && len(subDel) == 0 {
			return
		}
		s.shards[i].BatchDiff(subIns, subDel)
	})
}
