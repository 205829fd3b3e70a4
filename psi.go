// Package psi is Ψ-Lib/Go: a parallel spatial index library reproducing
// "Parallel Dynamic Spatial Indexes" (PPoPP 2026). It provides batch-
// dynamic spatial indexes for 2D and 3D integer point data with parallel
// construction, parallel batch insertion/deletion, and k-nearest-neighbor
// and orthogonal range queries:
//
//   - the P-Orth tree — a parallel quadtree/octree built without
//     space-filling curves (the paper's §3);
//   - the SPaC-tree family — parallel R-trees over Morton or Hilbert
//     codes with relaxed in-leaf order (the paper's §4);
//   - the baselines the paper evaluates against: Pkd-tree, Zd-tree,
//     CPAM-Z/CPAM-H, and a sequential quadratic R-tree.
//
// All indexes implement the same Index interface, so they are drop-in
// interchangeable; pick by workload using the guidance in the README
// (distilled from the paper's §5.4):
//
//	u := psi.Universe2D(1_000_000_000)
//	idx := psi.NewSPaCH(2, u) // fastest batch updates
//	idx.Build(points)
//	idx.BatchInsert(more)
//	nn := idx.KNN(q, 10, nil)
//
// Indexes are safe for concurrent queries but not for concurrent
// mutation, nor for a query during one; batch operations parallelize
// internally. To scale past one index's batch throughput, shard the
// universe with NewSharded: S regions each own an independent index, a
// batch update fans out across shards in parallel, and queries prune to
// the shards that can contribute — still an Index, under the same rule.
// To serve mutations from many goroutines, wrap any stack in a Collection
// (NewCollection), the one concurrent batch-coalescing front-end: it
// tracks one point per ID, nets per-ID moves into batch diffs and
// resolves geometric queries back to IDs. To put the whole stack behind a
// socket, wrap it in a Server (NewServer) — the psid protocol served by
// cmd/psid — and to make acknowledged writes survive restarts, give the
// server a write-ahead log (NewDurableServer). ARCHITECTURE.md maps the
// layers.
package psi

import (
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/logtree"
	"repro/internal/obs"
	"repro/internal/orthtree"
	"repro/internal/pkdtree"
	"repro/internal/rtree"
	"repro/internal/service"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/zdtree"
)

// Point is a 2D or 3D point with int64 coordinates. For 2D data the third
// slot must be zero.
type Point = geom.Point

// Box is a closed axis-aligned box.
type Box = geom.Box

// Index is the uniform interface implemented by every spatial index in
// the library. See core.Index for the full contract.
type Index = core.Index

// Options carries tree tuning parameters (leaf wrap φ, balance α,
// skeleton levels λ, universe box). Use DefaultOptions as a base.
type Options = core.Options

// Pt2 builds a 2D point.
func Pt2(x, y int64) Point { return geom.Pt2(x, y) }

// Pt3 builds a 3D point.
func Pt3(x, y, z int64) Point { return geom.Pt3(x, y, z) }

// BoxOf builds the box with corners lo and hi (inclusive).
func BoxOf(lo, hi Point) Box { return geom.BoxOf(lo, hi) }

// Universe2D returns the box [0, side]^2, the conventional root region.
func Universe2D(side int64) Box { return geom.UniverseBox(2, side) }

// Universe3D returns the box [0, side]^3.
func Universe3D(side int64) Box { return geom.UniverseBox(3, side) }

// DefaultOptions returns the paper's parameter choices (§C).
func DefaultOptions(dims int, universe Box) Options {
	return core.DefaultOptions(dims, universe)
}

// NewPOrth returns a P-Orth tree (this paper, §3): the best
// query/update trade-off on non-skewed data; history-independent, so
// query performance does not degrade under sustained updates. Like the
// SPaC family it is copy-on-write, so it serves snapshot reads from one
// shared tree.
func NewPOrth(dims int, universe Box) Index { return orthtree.NewDefault(dims, universe) }

// NewPOrthOpts returns a P-Orth tree with explicit options.
func NewPOrthOpts(opts Options) Index { return orthtree.New(opts) }

// NewSPaCH returns a SPaC-H-tree (this paper, §4, Hilbert curve): the
// paper's recommended default for highly dynamic workloads — the fastest
// construction and batch updates, with the better query speed of the two
// SPaC variants.
func NewSPaCH(dims int, universe Box) Index { return spactree.NewSPaC(sfc.Hilbert, dims, universe) }

// NewSPaCZ returns a SPaC-Z-tree (Morton curve): slightly faster updates
// than SPaC-H, slower queries.
func NewSPaCZ(dims int, universe Box) Index { return spactree.NewSPaC(sfc.Morton, dims, universe) }

// NewCPAMH returns the CPAM-H baseline: a PaC-tree over Hilbert codes
// with a fully sorted total order (the paper's ablation of the SPaC
// relaxation).
func NewCPAMH(dims int, universe Box) Index { return spactree.NewCPAM(sfc.Hilbert, dims, universe) }

// NewCPAMZ returns the CPAM-Z baseline (Morton codes).
func NewCPAMZ(dims int, universe Box) Index { return spactree.NewCPAM(sfc.Morton, dims, universe) }

// NewPkd returns the Pkd-tree baseline [43]: strong queries, updates pay
// O(log² n) amortized per point.
func NewPkd(dims int) Index { return pkdtree.NewDefault(dims) }

// NewZd returns the Zd-tree baseline [16]: a Morton-sort-based parallel
// orth-tree.
func NewZd(dims int, universe Box) Index { return zdtree.NewDefault(dims, universe) }

// NewRTree returns the sequential quadratic R-tree baseline (Boost-R).
func NewRTree(dims int) Index { return rtree.New(dims) }

// NewLogTree returns the logarithmic-method kd-tree baseline [62]: cheap
// batch insertion by binary-counter carries, but every query pays an
// O(log n) forest traversal — the trade-off the paper's designs avoid.
func NewLogTree(dims int) Index { return logtree.NewLog(dims) }

// NewBHLTree returns the full-rebuild kd-tree baseline [62]: every batch
// update rebuilds the whole tree.
func NewBHLTree(dims int) Index { return logtree.NewBHL(dims) }

// NewBruteForce returns the linear-scan reference index (exact, slow;
// intended for testing and cross-validation).
func NewBruteForce(dims int) Index { return core.NewBruteForce(dims) }

// All returns one instance of every parallel index in the library plus
// the sequential R-tree, in the paper's table order. Universe must cover
// all points and fit SFC precision (2D: [0, 2^31); 3D: [0, 2^21)).
func All(dims int, universe Box) []Index {
	return []Index{
		NewPOrth(dims, universe),
		NewZd(dims, universe),
		NewSPaCH(dims, universe),
		NewSPaCZ(dims, universe),
		NewCPAMH(dims, universe),
		NewCPAMZ(dims, universe),
		NewRTree(dims),
		NewPkd(dims),
		NewLogTree(dims),
		NewBHLTree(dims),
	}
}

// ByName constructs an index by its table name ("P-Orth", "Zd-Tree",
// "SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z", "Boost-R", "Pkd-Tree",
// "Log-Tree", "BHL-Tree", "BruteForce"); it returns nil for unknown
// names.
func ByName(name string, dims int, universe Box) Index {
	switch name {
	case "P-Orth":
		return NewPOrth(dims, universe)
	case "Zd-Tree":
		return NewZd(dims, universe)
	case "SPaC-H":
		return NewSPaCH(dims, universe)
	case "SPaC-Z":
		return NewSPaCZ(dims, universe)
	case "CPAM-H":
		return NewCPAMH(dims, universe)
	case "CPAM-Z":
		return NewCPAMZ(dims, universe)
	case "Boost-R":
		return NewRTree(dims)
	case "Pkd-Tree":
		return NewPkd(dims)
	case "Log-Tree":
		return NewLogTree(dims)
	case "BHL-Tree":
		return NewBHLTree(dims)
	case "BruteForce":
		return NewBruteForce(dims)
	}
	return nil
}

// Sharded is a space-partitioned fan-out layer over any index family:
// the universe is split into S compact regions, each owning an
// independent index. A batch update is partitioned by region in parallel
// and all shard sub-batches apply concurrently; range queries visit only
// the shards whose region overlaps the box, and KNN expands shards
// best-first by region distance. Like every Index it is
// batch-synchronous — one mutation at a time, queries between them; wrap
// it in a Collection for concurrent use (see README "Scaling out").
type Sharded = shard.Sharded

// ShardedOptions configures a Sharded index: dimensions, universe, shard
// count S, the per-shard index constructor and the metrics registry.
type ShardedOptions = shard.Options

// NewSharded partitions the universe into shards regions (Hilbert-range
// partitioning; shards <= 0 selects one per core) and builds one index
// per region with newIndex — e.g. psi.NewSharded(psi.NewSPaCH, 2, u, 0).
// Use NewShardedOpts to attach a metrics registry.
func NewSharded(newIndex func(dims int, universe Box) Index, dims int, universe Box, shards int) *Sharded {
	return shard.New(shard.Options{
		Dims:     dims,
		Universe: universe,
		Shards:   shards,
		New:      newIndex,
	})
}

// NewShardedOpts builds a Sharded index from its options struct.
func NewShardedOpts(opts ShardedOptions) *Sharded { return shard.New(opts) }

// Collection is a concurrent ID-keyed moving-object layer over any Index
// (a tree or a Sharded of trees): it tracks one point per
// live ID, nets each window of Set/Remove calls by last-write-wins per ID
// into a single BatchDiff, and keeps a point→ID reverse multimap
// transactionally consistent with the index so geometric queries resolve
// to object identities. Set/Remove/Get/NearbyIDs/WithinIDs are all safe
// for fully concurrent use; see internal/collection for the visibility
// contract and README "Tracking objects" for stack guidance.
type Collection[ID comparable] = collection.Collection[ID]

// CollectionEntry is one resolved Collection query hit: an object ID and
// its indexed position.
type CollectionEntry[ID comparable] = collection.Entry[ID]

// CollectionOptions tunes a Collection: MaxBatch is the coalescing
// threshold that triggers a synchronous flush, FlushInterval (optional)
// runs a background flusher bounding query staleness, and Snapshot
// (optional) switches Get/NearbyIDs/WithinIDs over a copy-on-write index
// (the SPaC family and P-Orth, bare or sharded) to the epoch-pinned
// snapshot path — readers never wait behind the index apply, at most for
// a window's short ID-table step. The zero value is usable (locked reads).
type CollectionOptions = collection.Options

// CollectionStats is a snapshot of a Collection's lifetime counters.
type CollectionStats = collection.Stats

// NewCollection wraps idx (which must start empty) in a Collection keyed
// by ID. The Collection takes ownership of idx; do not touch it directly
// afterwards. If opts.FlushInterval is set, pair with Close to stop the
// background flusher.
func NewCollection[ID comparable](idx Index, opts CollectionOptions) *Collection[ID] {
	return collection.New[ID](idx, opts)
}

// Server is psid, the network serving layer: it exposes a
// Collection[string] over a newline-delimited JSON command protocol on
// TCP (SET/DEL/GET/NEARBY/WITHIN/STATS/FLUSH, one goroutine per
// connection) plus HTTP /healthz and /stats probes. See docs/protocol.md
// for the wire protocol, cmd/psid for the standalone binary, and
// ARCHITECTURE.md for where the layer sits in the stack.
type Server = service.Server

// ServerOptions tunes a Server: the Collection coalescing knobs
// (MaxBatch, FlushInterval), the request line-length cap,
// DisableSnapshot to fall back to locked reads, and the WAL knobs
// (WALDir, WALFsync, WALSnapshotInterval — see NewDurableServer). The
// zero value is usable and, unlike a bare Collection, defaults to a 2ms
// background flush so acknowledged writes never stay invisible.
type ServerOptions = service.Options

// ServerStats is the STATS/GET-/stats payload: collection counters plus
// per-command serving latency quantiles.
type ServerStats = service.StatsPayload

// NewServer wraps idx (which must start empty) in a psid Server. The
// Server takes ownership of idx; bind it with Start, stop it with
// Shutdown. When idx is copy-on-write (the SPaC family and P-Orth, bare
// or under NewSharded) the server defaults to epoch-pinned snapshot reads
// from one shared tree — NEARBY/WITHIN/GET never wait behind the index
// apply, at most for a window's short ID-table step; opt out with
// ServerOptions.DisableSnapshot. Over the baselines it serves locked
// reads. The recommended serving stack wraps a Sharded index:
//
//	s := psi.NewServer(psi.NewSharded(psi.NewSPaCH, 2, u, 0), psi.ServerOptions{})
//	s.Start(":7501", ":7502")
func NewServer(idx Index, opts ServerOptions) *Server { return service.New(idx, opts) }

// NewDurableServer is NewServer plus crash durability: with
// opts.WALDir set it recovers the collection from the directory's
// write-ahead log (snapshot + committed-window replay, truncating a
// torn tail after a crash), journals every committed flush window from
// then on, and snapshots periodically to truncate the log. Under the
// WALFsyncAlways policy, SET/DEL acknowledgements wait for the journal
// fsync — "ok" means on disk — and a failed WAL turns the server
// fail-stop (writes error with code "unavailable", Fatal() fires).
// docs/durability.md has the on-disk format and the per-policy
// guarantee; cmd/psid exposes the knobs as -wal, -fsync and
// -snapshot-interval. It returns an error when recovery fails (a
// corrupt snapshot, an unreadable directory) rather than serving
// silently empty.
func NewDurableServer(idx Index, opts ServerOptions) (*Server, error) {
	return service.NewDurable(idx, opts)
}

// WALFsyncPolicy selects when journaled flush windows are forced to
// stable storage (ServerOptions.WALFsync).
type WALFsyncPolicy = wal.FsyncPolicy

// WAL fsync policies, in decreasing strength: Always syncs inside every
// committed window (acknowledged == on disk, the only policy that
// survives power loss), Interval syncs on a timer
// (ServerOptions.WALFsyncInterval — at most one interval lost to a host
// crash), Never leaves syncing to the kernel (survives process crashes
// only). docs/durability.md spells out each guarantee.
const (
	WALFsyncAlways   = wal.FsyncAlways
	WALFsyncInterval = wal.FsyncInterval
	WALFsyncNever    = wal.FsyncNever
)

// ParseWALFsync parses a psid -fsync flag value — "always", "never", or
// a sync cadence like "100ms" (selecting WALFsyncInterval) — into the
// policy and interval for ServerOptions.
func ParseWALFsync(s string) (WALFsyncPolicy, time.Duration, error) {
	return wal.ParseFsync(s)
}

// Metrics is a process-wide observability registry (internal/obs): a
// zero-allocation metric surface — atomic counters, gauges, power-of-two
// latency histograms, a flush-span trace ring — that every layer records
// into when handed one via its Options.Obs field (ShardedOptions,
// CollectionOptions, ServerOptions). A Server exposes its
// registry as Prometheus text on /metrics; see docs/observability.md for
// the metric catalog.
type Metrics = obs.Registry

// MetricsLabel is one key="value" label on a registered metric series.
type MetricsLabel = obs.Label

// NewMetrics builds an empty registry. Hand the same registry to every
// layer of one serving stack (and at most one stack per registry — series
// names would collide otherwise).
func NewMetrics() *Metrics { return obs.New() }

// ServiceClient is a minimal psid protocol client: one connection, one
// request in flight, concurrency-safe. Open one per serving goroutine.
type ServiceClient = service.Client

// ServiceHit is one resolved query result from a ServiceClient.
type ServiceHit = service.Hit

// DialService connects a ServiceClient to a psid server.
func DialService(addr string) (*ServiceClient, error) { return service.Dial(addr) }

// Workload re-exports: the paper's synthetic distributions and query
// generators, for examples and downstream benchmarking.

// Dist names a point distribution ("uniform", "sweepline", "varden",
// "cosmo", "osm").
type Dist = workload.Dist

// Distributions available to Generate.
const (
	Uniform   = workload.Uniform
	Sweepline = workload.Sweepline
	Varden    = workload.Varden
	Cosmo     = workload.Cosmo
	OSM       = workload.OSM
)

// Generate produces n points of the given distribution inside
// [0, side]^dims, deterministically in seed.
func Generate(d Dist, n, dims int, side int64, seed int64) []Point {
	return workload.Generate(d, n, dims, side, seed)
}

// RangeQueries generates query boxes covering the given fraction of the
// universe volume.
func RangeQueries(nq, dims int, side int64, frac float64, seed int64) []Box {
	return workload.RangeQueries(nq, dims, side, frac, seed)
}
