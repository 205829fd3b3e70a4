// Package core defines the common contract shared by every spatial index
// in Ψ-Lib/Go (the paper's psi::BaseTree, §F.2): the Index interface with
// batch construction/updates and the standard query suite (k-NN, range
// count, range report), the tuning options of the paper's implementations
// (§C), and a brute-force reference index used as ground truth by the test
// suites of every tree package.
package core

import (
	"fmt"
	"math"

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

// Versioned is the capability behind the library's snapshot reads
// (ARCHITECTURE.md "Epochs & snapshot reads"): a copy-on-write index, one
// writer whose updates copy only what they go on to change (internal/
// spactree and internal/orthtree cow.go), so that the contents before an
// update stay intact as a read-only view. The version cell applies each
// window to the writer, pins a view of the result, waits out the readers
// of the view it displaces, publishes the new one and unpins the old: a
// window is applied, and a Build run, once.
//
// Contract (normative):
//
//   - Pin returns a read-only view of the receiver's contents, in O(1)
//     and, once a view has been pinned and unpinned before, without
//     allocating: an Index that answers every query as the receiver does
//     now, until it is unpinned, whatever updates the receiver runs
//     meanwhile; an update of the view panics. Pin returns nil when the
//     index cannot pin (a composite whose children are not Versioned);
//     for a given index the answer never changes.
//   - Queries may run on the views and on the receiver during Pin and
//     Unpin. Updates, Pin and Unpin must not overlap one another: the
//     caller serializes them.
//   - Unpin(v) ends a view the receiver pinned, which must not be read
//     again: its queries must have ended, since Unpin may hand what the
//     receiver's updates displaced from it to the next update for reuse
//     (reclaim at unpin, handle.go). The version cell's drain ends them
//     before it unpins. It panics when v is not a view pinned from the
//     receiver.
//   - Current(v) reports whether v is a pinned view of the receiver's
//     contents as they are: true after Pin until the receiver's next
//     update.
//   - Copied returns the running totals of nodes, and bytes of stored
//     entries, the receiver has copied because a view reached them — the
//     cost of the views, against the size of the whole index.
type Versioned interface {
	Pin() Index
	Unpin(v Index)
	Current(v Index) bool
	Copied() (nodes, bytes uint64)
}

// Bounded is an index whose updates must keep to a fixed universe (the
// SPaC family, P-Orth, and a Sharded index over any family): an update
// that brings in a point outside Universe breaks its contract and may
// panic. A caller that takes points from outside the program — psid's
// SET — checks them against Universe before they reach the index.
type Bounded interface {
	Universe() geom.Box
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

// RequireUniverse is the universe check of the trees that store their
// points as int32 coordinates (geom.Packed: the SPaC family and P-Orth).
// It panics unless, in every used dimension, the universe lies inside
// [lo, hi] and inside int32, and unless its squared diagonal fits int64,
// which keeps the squared distance between any two of its points exact;
// family names the tree in the message. Constructors call it, as they
// call Validate.
func (o Options) RequireUniverse(family string, lo, hi int64) {
	lo, hi = max(lo, math.MinInt32), min(hi, math.MaxInt32)
	u := o.Universe
	var diag2 uint64 // a side inside int32 is below 2³², so its square fits
	for d := 0; d < o.Dims; d++ {
		if u.Lo[d] < lo || u.Hi[d] > hi {
			panic(fmt.Sprintf("%s: universe %v exceeds the stored coordinate range [%d, %d]", family, u, lo, hi))
		}
		s := uint64(max(u.Hi[d]-u.Lo[d], 0))
		if s*s > math.MaxInt64-diag2 {
			panic(fmt.Sprintf("%s: universe %v is too wide: its squared diagonal exceeds int64", family, u))
		}
		diag2 += s * s
	}
}
