package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// DefaultCellsPerShard is the partition granularity used when
// Options.CellsPerShard is unset: enough cells per shard that equi-depth
// rebalancing has room to move boundaries, few enough that the cell
// tables stay trivial.
const DefaultCellsPerShard = 16

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
	// Strategy selects the region shape: Grid slabs or Morton/Hilbert
	// SFC ranges (HilbertRange gives the most compact regions).
	Strategy Strategy
	// CellsPerShard is the partition granularity: the grid carries
	// ~max(S * CellsPerShard, 16384) cells (capped at 65536), so
	// rebalancing can split clustered data well below shard granularity.
	// <= 0 selects DefaultCellsPerShard.
	CellsPerShard int
	// Static disables the Build-time equi-depth rebalancing of region
	// boundaries. With Static set, regions carry equal cell counts no
	// matter how skewed the data — the configuration in which clustered
	// distributions pile points into few shards.
	Static bool
	// New constructs one shard's index. It is called once per shard with
	// the full universe (shard indexes may receive any in-universe point
	// after a rebalance, and space-partitioning children need the
	// universe fixed for history independence).
	New func(dims int, universe geom.Box) core.Index
	// Obs, when set, registers per-shard load metrics (batch ops applied,
	// queries touched, KNN expansions — all labeled
	// shard="i"), the query fan-out histogram, and records a
	// flush-pipeline span per batch into the registry's trace ring.
	// Replicas made by NewReplica share the originals' series: every
	// BatchDiff on either twin counts, which is once per window when the
	// twins share their trees (Adopt) and twice when each window is
	// applied to both. Recording is atomics only, so the zero-alloc batch
	// and query guarantees hold. Leave nil to pay nothing. Register at
	// most one Sharded (plus its replicas) per registry.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.CellsPerShard <= 0 {
		o.CellsPerShard = DefaultCellsPerShard
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
// independent core.Index behind its own version cell (epoch.Cell). It
// implements core.Index, and — unlike the raw indexes — is safe for fully
// concurrent use: batch updates commit only to the shards they touch, so
// mutations of different regions never contend, and queries acquire each
// shard they visit for reading.
//
// Consistency is per shard: a query running concurrently with a batch
// update observes each shard either before or after its sub-batch, never
// mid-application, but may see a cross-shard batch partially applied.
// Callers that need whole-batch atomicity across shards wrap the Sharded
// in a store.Store, whose global read/write lock restores it (see the
// "Scaling out" section of the README for the composition guidance).
// Readers that must never wait behind a sub-batch get that one layer up:
// a snapshot-mode Store/Collection/Server keeps two Shardeds (NewReplica)
// and reads the published one (ARCHITECTURE.md "Epochs & snapshot
// reads"). Over copy-on-write children the two are handles on one set of
// trees (Adopt); over any other family each is a whole copy.
type Sharded struct {
	opts Options

	// epoch serializes partition swaps against everything else: Build
	// (which may rebalance region boundaries) takes the write side; all
	// other operations read-lock it and then synchronize per shard.
	epoch sync.RWMutex
	part  *partition
	// shards holds each region's index behind its version cell — one copy
	// under a read/write lock, which serializes the sub-batches that land
	// on the shard against its readers.
	shards []epoch.IndexCell
	// childName is the shard index family's name, for Name.
	childName string
	// cow is every shard's index as a core.Adopter, in shard order, or nil
	// when the family is not copy-on-write; fixed at construction, like
	// the indexes themselves (a shard's cell holds one copy for life).
	cow []core.Adopter

	// diffPool and queryPool recycle the batch-partitioning and query
	// fan-out scratch across operations (concurrent callers each borrow
	// their own), so steady-state flushes and queries reuse their buffers.
	diffPool  sync.Pool
	queryPool sync.Pool

	// met is the observability hook set, nil unless Options.Obs was
	// given. Replicas share their original's met (NewReplica), so one
	// logical index registers its per-shard series exactly once.
	met *shardMetrics
}

var _ core.Index = (*Sharded)(nil)
var _ core.Replicator = (*Sharded)(nil)
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
		part:   newPartition(opts.Dims, opts.Universe, opts.Shards, opts.Strategy, opts.CellsPerShard),
		shards: make([]epoch.IndexCell, opts.Shards),
	}
	s.diffPool.New = func() any { return new(diffScratch) }
	s.queryPool.New = func() any { return new(queryScratch) }
	cow := make([]core.Adopter, 0, len(s.shards))
	for i := range s.shards {
		child := opts.New(opts.Dims, opts.Universe)
		s.shards[i].Init(epoch.ApplyDiff, child)
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

// NewReplica implements core.Replicator: a Sharded can always construct
// a fresh, empty, identically configured twin of itself, so wrapping one
// in a snapshot-mode Store/Collection/Server needs no explicit factory.
// The replica shares the original's metric series rather than
// re-registering them: per-shard op counts then aggregate the BatchDiffs
// of both twins, and query counts stay exact because only the published
// twin is queried.
func (s *Sharded) NewReplica() core.Index {
	r := newSharded(s.opts)
	r.met = s.met
	return r
}

// Adopt implements core.Adopter when the shard family does: every shard's
// index adopts its counterpart in src and the partition — immutable,
// swapped whole by Build — is shared, so the receiver becomes a second
// handle on src's contents in O(S) without allocating. It refuses unless
// src is a Sharded of the same shape over the same family.
//
// The receiver is excluded from every other operation for the duration;
// src is only held against a Build and, shard by shard, against a
// sub-batch in mid-apply, so its queries keep running. The caller
// serializes Adopt against updates of either side (the core.Adopter
// contract), which is also what keeps a src caught between two shards of
// one cross-shard batch from being adopted half-applied.
func (s *Sharded) Adopt(src core.Index) bool {
	o, ok := src.(*Sharded)
	if !ok || s.cow == nil || o.cow == nil || o.childName != s.childName ||
		o.opts.Dims != s.opts.Dims || o.opts.Universe != s.opts.Universe || o.opts.Shards != s.opts.Shards ||
		o.opts.Strategy != s.opts.Strategy || o.opts.CellsPerShard != s.opts.CellsPerShard {
		return false
	}
	if o == s {
		return true
	}
	s.epoch.Lock()
	defer s.epoch.Unlock()
	o.epoch.RLock()
	defer o.epoch.RUnlock()
	for i := range s.cow {
		from := o.shards[i].Acquire()
		ok := s.cow[i].Adopt(from.Data)
		o.shards[i].Release(from)
		if !ok {
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
	s.epoch.RLock()
	defer s.epoch.RUnlock()
	if os != s {
		os.epoch.RLock()
		defer os.epoch.RUnlock()
	}
	for i := range s.cow {
		if !s.cow[i].Shares(os.shards[i].Writable()) {
			return false
		}
	}
	return s.part == os.part
}

// Copied implements core.Adopter: the shards' totals, summed. It takes no
// lock (a shard's index is fixed and keeps its own counts atomically), so
// a scrape never waits behind a batch.
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
	return fmt.Sprintf("Sharded[%d%s](%s)", s.opts.Shards, s.opts.Strategy, s.childName)
}

// Dims implements core.Index.
func (s *Sharded) Dims() int { return s.opts.Dims }

// Shards returns the shard count S.
func (s *Sharded) Shards() int { return s.opts.Shards }

// shardSize reads one shard's point count under its read lock.
func (s *Sharded) shardSize(i int) int {
	v := s.shards[i].Acquire()
	defer s.shards[i].Release(v)
	return v.Data.Size()
}

// Size implements core.Index.
func (s *Sharded) Size() int {
	s.epoch.RLock()
	defer s.epoch.RUnlock()
	total := 0
	for i := range s.shards {
		total += s.shardSize(i)
	}
	return total
}

// ShardSizes appends each shard's point count to dst (load-balance
// introspection for the benchmarks and tests).
func (s *Sharded) ShardSizes(dst []int) []int {
	s.epoch.RLock()
	defer s.epoch.RUnlock()
	for i := range s.shards {
		dst = append(dst, s.shardSize(i))
	}
	return dst
}

// Build implements core.Index: it replaces the contents with pts. Unless
// Options.Static is set, Build first rebalances the region boundaries so
// every shard receives ~len(pts)/S points (equi-depth over the cell
// histogram), then builds all shard indexes in parallel. Build excludes
// every concurrent operation for the duration of the boundary swap.
func (s *Sharded) Build(pts []geom.Point) {
	s.epoch.Lock()
	defer s.epoch.Unlock()
	if !s.opts.Static {
		s.part = s.part.rebalanced(s.cellHistogram(pts))
	}
	part := s.part
	scratch := make([]geom.Point, len(pts))
	offsets := parallel.Sieve(pts, scratch, part.shards, part.shardOf)
	parallel.ForEach(part.shards, 1, func(i int) {
		sub := scratch[offsets[i]:offsets[i+1]]
		s.shards[i].Rebuild(func(idx core.Index) { idx.Build(sub) }, nil)
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

// diffScratch is one BatchDiff's partitioning state: the reordered point
// buffers plus the sieve scratch for each side. Scratches are pooled per
// Sharded so a steady stream of flush-sized diffs allocates nothing; the
// per-shard sub-batches handed to the children are sub-slices of these
// buffers, which is legal because core.Index implementations must not
// retain batch slices after the call returns (see the Index contract).
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
	s.epoch.RLock()
	defer s.epoch.RUnlock()
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
	// BatchDiff may run from many goroutines at once, so the scratch is
	// borrowed from a pool rather than kept unguarded on the struct.
	sc := s.diffPool.Get().(*diffScratch)
	sc.ins = grown(sc.ins, len(ins))
	sc.del = grown(sc.del, len(del))
	var insOff, delOff []int
	parallel.DoIf(len(ins) >= 512 && len(del) >= 512,
		func() { insOff = parallel.SieveWith(&sc.insSieve, ins, sc.ins, part.shards, part.shardOf) },
		func() { delOff = parallel.SieveWith(&sc.delSieve, del, sc.del, part.shards, part.shardOf) },
	)
	clk = sp.Stamp(obs.StageNet, clk)
	parallel.ForEach(part.shards, 1, func(i int) {
		// The sub-batch aliases the pooled scratch; see epoch.Diff.
		sub := epoch.Diff{Ins: sc.ins[insOff[i]:insOff[i+1]], Del: sc.del[delOff[i]:delOff[i+1]]}
		if len(sub.Ins) == 0 && len(sub.Del) == 0 {
			return // an untouched shard commits (and publishes) nothing
		}
		if m != nil {
			m.ops[i].Add(uint64(len(sub.Ins) + len(sub.Del)))
		}
		// The shared span is stamped once for all shards below, not per
		// cell: the shards commit in parallel.
		s.shards[i].Commit(sub, nil, time.Time{})
	})
	if m != nil {
		sp.Stamp(obs.StageApply, clk)
		m.flushes.Add(1)
		m.flushDur.Record(sp.Dur())
		m.trace.Record(*sp)
	}
	s.diffPool.Put(sc)
}
