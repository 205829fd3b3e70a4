// Sharded: scaling updates across indexes instead of inside one.
//
// The universe is partitioned into S Hilbert-compact regions, each owning
// an independent SPaC-H tree. One big "move" batch (delete old positions,
// insert new ones) is partitioned by region in parallel and every shard
// applies its sub-batch concurrently; range queries visit only the shards
// whose region overlaps the box, and kNN expands shards best-first by
// region distance. A Sharded is batch-synchronous like the trees under
// it, so the demo drives it from this one goroutine: it contrasts an
// unsharded SPaC-H with the sharded fan-out on the same workload and
// prints the shard load balance on clustered data. Sharded is a library
// layer: a Collection in front of it admits concurrent moves as it does
// over a bare tree, which is the stack psid and examples/server run.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/examples/internal/demo"

	psi "repro"
)

const (
	side   = int64(1_000_000_000)
	shards = 8
)

var (
	n     = demo.Scale(400_000)
	batch = n / 10
)

func main() {
	universe := psi.Universe2D(side)
	pts := psi.Generate(psi.Varden, n, 2, side, 1) // clustered: the hard case
	fresh := psi.Generate(psi.Varden, batch, 2, side, 2)

	// Baseline: one SPaC-H tree, the paper's fastest batch updater.
	single := psi.NewSPaCH(2, universe)
	single.Build(pts)
	t0 := time.Now()
	single.BatchDiff(fresh, pts[:batch])
	singleDiff := time.Since(t0)

	// Sharded: S regions, each its own SPaC-H. Build rebalances the
	// region boundaries so the clusters spread across shards.
	s := psi.NewSharded(psi.NewSPaCH, 2, universe, shards)
	s.Build(pts)
	t0 = time.Now()
	s.BatchDiff(fresh, pts[:batch])
	shardedDiff := time.Since(t0)

	fmt.Printf("%s on %d cores\n", s.Name(), runtime.NumCPU())
	fmt.Printf("10%% move batch: single %.1fms, sharded %.1fms (sub-batches for different regions apply concurrently; the gap widens with cores)\n",
		singleDiff.Seconds()*1e3, shardedDiff.Seconds()*1e3)
	sizes := s.ShardSizes(nil)
	fmt.Printf("shard loads after equi-depth rebalance (ideal %d): %v\n", s.Size()/shards, sizes)

	// Queries prune to the shards that can contribute. (Query around a
	// freshly inserted point — the pts[:batch] prefix just left.)
	q := fresh[0]
	nn := s.KNN(q, 10, nil)
	lo := psi.Pt2(q[0]-10_000_000, q[1]-10_000_000)
	hi := psi.Pt2(q[0]+10_000_000, q[1]+10_000_000)
	fmt.Printf("10NN of %v found %d; box count near it: %d\n", q, len(nn), s.RangeCount(psi.BoxOf(lo, hi)))
}
