// Package core defines the common contract shared by every spatial index
// in Ψ-Lib/Go (the paper's psi::BaseTree, §F.2): the Index interface with
// batch construction/updates and the standard query suite (k-NN, range
// count, range report), the tuning options of the paper's implementations
// (§C), and a brute-force reference index used as ground truth by the test
// suites of every tree package.
package core

import (
	"fmt"

	"repro/internal/geom"
)

// Index is the uniform interface over all spatial indexes: the P-Orth tree
// and SPaC-trees (this paper), and the Pkd-tree, Zd-tree, CPAM and R-tree
// baselines, and the Sharded fan-out over any of them. All batch
// operations may run in parallel internally; an Index is NOT safe for
// concurrent mutation, nor for a query during one, matching the paper's
// model of batch-synchronous updates. Queries never mutate and the
// Parallel* helpers in this package run them concurrently. Reader
// isolation is the front-end's (the Collection): one version cell per
// stack, above the Index.
//
// Buffer ownership (normative; ARCHITECTURE.md "Buffer ownership" has the
// full rules): an implementation must NOT retain the slices passed to
// Build/BatchInsert/BatchDelete/BatchDiff after the call returns — the
// caller may reuse them immediately, which is what lets the Collection
// and Sharded layers recycle their flush scratch — and must not
// write them either: Collection.Load hands Build the point array of its
// live slot table. Symmetrically,
// KNN and RangeList append to the caller's dst (preserving its prefix,
// reusing its backing array when capacity suffices) and must not keep any
// alias to it after returning; the result is the caller's to keep or
// mutate. TestDstAppendContract enforces this for every index.
type Index interface {
	// Name returns the display name used in the experiment tables.
	Name() string
	// Dims returns the dimensionality (2 or 3).
	Dims() int
	// Build replaces the contents with pts (bulk construction).
	Build(pts []geom.Point)
	// BatchInsert adds a batch of points.
	BatchInsert(pts []geom.Point)
	// BatchDelete removes one occurrence per requested point (multiset
	// semantics). Requests with no matching point are ignored.
	BatchDelete(pts []geom.Point)
	// BatchDiff applies a mixed update — the del points leave, the ins
	// points enter — as one logical step (the artifact's BatchDiff(),
	// §F.2). Implementations may fuse the two passes.
	BatchDiff(ins, del []geom.Point)
	// Size returns the number of stored points.
	Size() int
	// KNN appends the k nearest neighbors of q (nearest first) to dst
	// and returns it. Ties at the k-th distance are broken arbitrarily.
	KNN(q geom.Point, k int, dst []geom.Point) []geom.Point
	// RangeCount returns the number of stored points inside box.
	RangeCount(box geom.Box) int
	// RangeList appends the stored points inside box to dst (order
	// unspecified) and returns it.
	RangeList(box geom.Box, dst []geom.Point) []geom.Point
}

// Adopter is the capability behind the library's snapshot reads
// (ARCHITECTURE.md "Epochs & snapshot reads"): a copy-on-write index, two
// replicas of which can be handles on one structure, each copying only
// what it goes on to change (internal/spactree and internal/orthtree
// cow.go). The version cell applies each window to the off-line handle,
// publishes it, and once the displaced handle's readers have drained has
// that one adopt it: a window is applied, and a Build run, once.
//
// Contract (normative):
//
//   - NewReplica returns a NEW, empty index configured identically to the
//     receiver, sharing no mutable state with it until it adopts it.
//   - Adopt(src) makes the receiver's contents src's without copying
//     them: O(1) for a tree, O(shards) for a composite, no allocation.
//     Afterwards the two answer every query alike, and an update of
//     either is invisible to the other and to any query still running on
//     the structure they shared. It reports false, having changed
//     nothing, when src is not a replica of the receiver (another family
//     or configuration, or a composite whose children are not Adopters);
//     for a given pair the answer never changes.
//   - Queries may run on src and on the receiver's old contents during
//     Adopt. Updates and other Adopt calls on either index must not: the
//     caller serializes them, as it does updates.
//   - Shares(o) reports whether the two are still handles on one
//     structure: true after Adopt until either is updated.
//   - Copied returns the running totals of nodes, and bytes of stored
//     entries, the receiver has copied because it shared them — the cost
//     of sharing, against the size of the whole index.
type Adopter interface {
	NewReplica() Index
	Adopt(src Index) bool
	Shares(o Index) bool
	Copied() (nodes, bytes uint64)
}

// Options carries the tuning parameters of §C. The zero value is invalid;
// start from DefaultOptions.
type Options struct {
	// Dims is the dimensionality, 2 or 3.
	Dims int
	// LeafWrap is phi, the leaf size upper bound: 40 for SPaC/CPAM, 32
	// for the others (§C "Parameter Choosing").
	LeafWrap int
	// Alpha is the weight-balance parameter of SPaC/CPAM trees (§C uses
	// 0.2; we default to 0.25, inside the provably joinable BB[alpha]
	// range) or the imbalance ratio of the Pkd-tree (§C: 0.3).
	Alpha float64
	// SkeletonLevels is lambda, the number of tree levels built per
	// sieve round: 3 for 2D and 2 for 3D orth-trees (§C); the Pkd-tree
	// uses 2^lambda-way rounds with lambda 3.
	SkeletonLevels int
	// Universe is the root region for space-partitioning trees. Required
	// for P-Orth/Zd trees (it fixes history independence); ignored by
	// object-partitioning trees.
	Universe geom.Box
}

// DefaultOptions returns the paper's parameter choices for a given
// dimensionality and universe.
func DefaultOptions(dims int, universe geom.Box) Options {
	lambda := 3
	if dims == 3 {
		lambda = 2
	}
	return Options{
		Dims:           dims,
		LeafWrap:       32,
		Alpha:          0.25,
		SkeletonLevels: lambda,
		Universe:       universe,
	}
}

// Validate checks option sanity; constructors call it and panic on
// programmer error (indexes are built from code, not user input).
func (o Options) Validate() {
	if o.Dims != 2 && o.Dims != 3 {
		panic(fmt.Sprintf("core: unsupported Dims %d", o.Dims))
	}
	if o.LeafWrap < 1 {
		panic("core: LeafWrap must be >= 1")
	}
	if o.SkeletonLevels < 1 {
		panic("core: SkeletonLevels must be >= 1")
	}
	if o.Alpha <= 0 || o.Alpha > 0.5 {
		panic("core: Alpha must be in (0, 0.5]")
	}
}
