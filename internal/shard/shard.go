package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
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
	// Obs, when set, registers per-shard load metrics (batch ops applied,
	// queries touched, KNN expansions — all labeled
	// shard="i"), the query fan-out histogram, and records a
	// flush-pipeline span per batch into the registry's trace ring.
	// Replicas made by NewReplica share the originals' series, so a
	// window applied to the off-line twin and then adopted counts once.
	// Recording is atomics only, so the zero-alloc batch and query
	// guarantees hold. Leave nil to pay nothing. Register at most one
	// Sharded (plus its replicas) per registry.
	Obs *obs.Registry
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
// the README). Over copy-on-write children (core.Adopter: the SPaC family
// and P-Orth) the front-end's snapshot reads keep two Shardeds
// (NewReplica) that are handles on one set of trees (Adopt) and read the
// published one (ARCHITECTURE.md "Epochs & snapshot reads"); over any
// other family Adopt refuses and the front-end reads under its lock.
type Sharded struct {
	opts Options

	// part is swapped whole by Build (rebalancing) and by Adopt.
	part   *partition
	shards []core.Index
	// childName is the shard index family's name, for Name.
	childName string
	// cow is every shard's index as a core.Adopter, in shard order, or nil
	// when the family is not copy-on-write; fixed at construction, like
	// the indexes themselves.
	cow []core.Adopter

	// diff is BatchDiff's partitioning scratch (there is one writer);
	// queryPool recycles the query fan-out scratch, which concurrent
	// readers each borrow.
	diff      diffScratch
	queryPool sync.Pool

	// met is the observability hook set, nil unless Options.Obs was
	// given. Replicas share their original's met (NewReplica), so one
	// logical index registers its per-shard series exactly once.
	met *shardMetrics
}

var _ core.Index = (*Sharded)(nil)
var _ core.Adopter = (*Sharded)(nil)

// New returns an empty Sharded index.
func New(opts Options) *Sharded {
	opts = opts.withDefaults()
	opts.validate()
	s := newSharded(opts)
	if opts.Obs != nil {
		s.met = newShardMetrics(opts.Obs, s)
	}
	return s
}

// newSharded builds the index without touching the registry — replicas
// go through here so their series register exactly once, on the
// original. opts must already carry defaults and have been validated.
func newSharded(opts Options) *Sharded {
	s := &Sharded{
		opts:   opts,
		part:   newPartition(opts.Dims, opts.Universe, opts.Shards),
		shards: make([]core.Index, opts.Shards),
	}
	s.queryPool.New = func() any { return new(queryScratch) }
	cow := make([]core.Adopter, 0, len(s.shards))
	for i := range s.shards {
		child := opts.New(opts.Dims, opts.Universe)
		s.shards[i] = child
		s.childName = child.Name() // the same for every shard
		if a, ok := child.(core.Adopter); ok {
			cow = append(cow, a)
		}
	}
	if len(cow) == len(s.shards) {
		s.cow = cow
	}
	return s
}

// NewReplica implements core.Adopter: a fresh, empty, identically
// configured twin. It shares the original's metric series rather than
// re-registering them: a window reaches one twin and is adopted by the
// other, so per-shard op counts stay exact, and so do query counts,
// because only the published twin is queried.
func (s *Sharded) NewReplica() core.Index {
	r := newSharded(s.opts)
	r.met = s.met
	return r
}

// Adopt implements core.Adopter when the shard family does: every shard's
// index adopts its counterpart in src and the partition — immutable,
// swapped whole by Build — is shared, so the receiver becomes a second
// handle on src's contents in O(S) without allocating. It refuses unless
// src is a Sharded of the same shape over the same family. src is only
// read, so its queries keep running; the caller keeps everything off the
// receiver and updates off src (the core.Adopter contract).
func (s *Sharded) Adopt(src core.Index) bool {
	o, ok := src.(*Sharded)
	if !ok || s.cow == nil || o.cow == nil || o.childName != s.childName ||
		o.opts.Dims != s.opts.Dims || o.opts.Universe != s.opts.Universe || o.opts.Shards != s.opts.Shards {
		return false
	}
	if o == s {
		return true
	}
	for i := range s.cow {
		if !s.cow[i].Adopt(o.shards[i]) {
			if i == 0 {
				return false // same family name, another configuration
			}
			panic("shard: " + s.childName + " shards of one index disagree about Adopt")
		}
	}
	s.part = o.part
	return true
}

// Shares implements core.Adopter: every shard's index shares its
// counterpart's structure, and the partition is the same one.
func (s *Sharded) Shares(o core.Index) bool {
	os, ok := o.(*Sharded)
	if !ok || s.cow == nil || len(os.cow) != len(s.cow) {
		return false
	}
	for i := range s.cow {
		if !s.cow[i].Shares(os.shards[i]) {
			return false
		}
	}
	return s.part == os.part
}

// Copied implements core.Adopter: the shards' totals, summed. The shard
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
	s.part = s.part.rebalanced(s.cellHistogram(pts))
	part := s.part
	scratch := make([]geom.Point, len(pts))
	offsets := parallel.Sieve(pts, scratch, part.shards, part.shardOf)
	parallel.ForEach(part.shards, 1, func(i int) {
		s.shards[i].Build(scratch[offsets[i]:offsets[i+1]])
	})
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
	if len(ins) == 0 && len(del) == 0 {
		return
	}
	part := s.part
	m := s.met
	var sp *obs.FlushSpan
	var clk time.Time
	if m != nil {
		clk = time.Now()
		// The shard layer nets nothing — its window was already netted a
		// layer up — so raw equals netted; StageNet is the parallel
		// partitioning of the batch into per-shard sub-batches.
		sp = &obs.FlushSpan{Layer: "shard", Start: clk.UnixNano(), RawOps: len(ins) + len(del), NettedOps: len(ins) + len(del)}
	}
	sc := &s.diff
	sc.ins = grown(sc.ins, len(ins))
	sc.del = grown(sc.del, len(del))
	var insOff, delOff []int
	parallel.DoIf(len(ins) >= 512 && len(del) >= 512,
		func() { insOff = parallel.SieveWith(&sc.insSieve, ins, sc.ins, part.shards, part.shardOf) },
		func() { delOff = parallel.SieveWith(&sc.delSieve, del, sc.del, part.shards, part.shardOf) },
	)
	clk = sp.Stamp(obs.StageNet, clk)
	parallel.ForEach(part.shards, 1, func(i int) {
		subIns, subDel := sc.ins[insOff[i]:insOff[i+1]], sc.del[delOff[i]:delOff[i+1]]
		if len(subIns) == 0 && len(subDel) == 0 {
			return
		}
		if m != nil {
			m.ops[i].Add(uint64(len(subIns) + len(subDel)))
		}
		s.shards[i].BatchDiff(subIns, subDel)
	})
	if m != nil {
		sp.Stamp(obs.StageApply, clk)
		m.flushes.Add(1)
		m.flushDur.Record(sp.Dur())
		m.trace.Record(*sp)
	}
}
