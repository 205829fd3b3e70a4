package shard

import (
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// A Sharded's part in snapshot reads is to be the twin: over a
// copy-on-write family a snapshot-mode Collection or Server keeps two
// Shardeds (NewReplica) in its version cell, handles on one set of trees
// (Adopt), applies a window once and reads the published one. These tests
// cover that role.

// TestSnapshotConcurrentUpdatesAndQueries hammers a snapshot-mode
// Collection over Sharded twins of either copy-on-write family with a
// window writer and concurrent readers (run under -race): readers pin one
// twin while the other takes its sub-batches, and the final contents must
// match a sequential oracle.
func TestSnapshotConcurrentUpdatesAndQueries(t *testing.T) {
	const n = 4000
	pts := uniquePoints(n, 11)
	for name, family := range map[string]func(int, geom.Box) core.Index{"shared P-Orth trees": porth, "shared trees": spacH} {
		t.Run(name, func(t *testing.T) { snapshotConcurrentUpdatesAndQueries(t, family, pts, n) })
	}
}

func snapshotConcurrentUpdatesAndQueries(t *testing.T, family func(int, geom.Box) core.Index, pts []geom.Point, n int) {
	side := workload.Uniform.Side(2)
	sh := New(testOptions(2, 8, family))
	c := collection.New[int](sh, collection.Options{MaxBatch: 1 << 20, Snapshot: true})
	if c.Stats().Versions != 2 {
		t.Fatal("the Collection keeps no twin of the Sharded")
	}
	c.Load(n/2, func(yield func(int, geom.Point) bool) {
		for id := 0; id < n/2 && yield(id, pts[id]); id++ {
		}
	})

	queries := workload.GenUniform(16, 2, side, 21)
	boxes := workload.RangeQueries(8, 2, side, 0.02, 23)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []collection.Entry[int]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf = c.NearbyIDsAppend(queries[i%len(queries)], 10, buf[:0])
				buf = c.WithinIDsAppend(boxes[i%len(boxes)], buf[:0])
			}
		}()
	}
	for i := n / 2; i < n; i += 100 {
		for id := i; id < min(i+100, n); id++ {
			c.Set(id, pts[id])
			c.Remove(id - n/2)
		}
		c.Flush()
	}
	close(stop)
	wg.Wait()

	ref := core.NewBruteForce(2)
	ref.Build(pts[n/2:])
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyQueries(sh, ref, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReplica checks the replica half of core.Adopter: over any
// shard family, NewReplica returns a fresh empty Sharded with the same
// configuration — the twin a version cell tries, which over a family that
// is not copy-on-write refuses to adopt.
func TestSnapshotReplica(t *testing.T) {
	s := New(testOptions(2, 4, brute))
	s.Build(uniquePoints(100, 3))
	r, ok := core.Index(s).(core.Adopter)
	if !ok {
		t.Fatal("Sharded does not implement core.Adopter")
	}
	twin := r.NewReplica()
	if twin.Size() != 0 {
		t.Fatalf("NewReplica starts with %d points, want 0", twin.Size())
	}
	if twin.Name() != s.Name() {
		t.Fatalf("NewReplica Name = %q, original %q", twin.Name(), s.Name())
	}
	if twin.(core.Adopter).Adopt(s) {
		t.Fatal("a replica over BruteForce shards adopted the original")
	}
}

// TestAdoptShared: a replica that adopts a Sharded of copy-on-write trees
// is the same contents and the same partition, tree for tree, until either
// side is updated — and then the other side keeps what it had, across a
// Build that moves the region boundaries too. A Sharded over a family
// that cannot share refuses, as does one of another shape.
func TestAdoptShared(t *testing.T) {
	pts := uniquePoints(6000, 5)
	s := New(testOptions(2, 4, spacH))
	s.Build(pts[:4000])
	twin := s.NewReplica().(*Sharded)
	if !twin.Adopt(s) || !twin.Shares(s) || !s.Shares(twin) {
		t.Fatal("a replica over SPaC-H shards did not adopt the original")
	}
	side := workload.Uniform.Side(2)
	queries := workload.GenUniform(12, 2, side, 7)
	boxes := workload.RangeQueries(6, 2, side, 0.02, 9)
	frozen := core.NewBruteForce(2)
	frozen.Build(pts[:4000])
	verify := func(what string, idx *Sharded, ref *core.BruteForce) {
		t.Helper()
		if err := idx.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := core.VerifyQueries(idx, ref, queries, []int{1, 10}, boxes); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	verify("twin after Adopt", twin, frozen)

	s.BatchDiff(pts[4000:5000], pts[:1000])
	live := core.NewBruteForce(2)
	live.Build(pts[1000:5000])
	if twin.Shares(s) {
		t.Fatal("still sharing after an update of one side")
	}
	verify("original after its update", s, live)
	verify("twin after the original's update", twin, frozen)
	if nodes, bytes := s.Copied(); nodes == 0 || bytes == 0 {
		t.Fatalf("an update of shared trees copied %d nodes, %d bytes", nodes, bytes)
	}
	if nodes, _ := twin.Copied(); nodes != 0 {
		t.Fatalf("the untouched twin copied %d nodes", nodes)
	}

	// A Build rebalances the original's regions: the twin keeps the
	// partition it adopted, and its contents.
	s.Build(pts[3000:])
	live.Build(pts[3000:])
	verify("original after Build", s, live)
	verify("twin after the original's Build", twin, frozen)
	if !s.Adopt(twin) || !s.Shares(twin) {
		t.Fatal("the original did not adopt its twin back")
	}
	verify("original after adopting back", s, frozen)

	plain := New(testOptions(2, 4, brute))
	if plain.Adopt(plain.NewReplica()) || plain.Shares(plain) {
		t.Fatal("a Sharded over BruteForce shards claims to share")
	}
	if nodes, bytes := plain.Copied(); nodes != 0 || bytes != 0 {
		t.Fatal("a Sharded over BruteForce shards reports copies")
	}
	for name, other := range map[string]*Sharded{
		"another shard count": New(testOptions(2, 8, spacH)),
		"another family":      plain,
	} {
		if s.Adopt(other) {
			t.Fatalf("adopted a Sharded of %s", name)
		}
	}
	verify("original after the refusals", s, frozen)
}
