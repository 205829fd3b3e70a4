package shard

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// A Sharded's part in snapshot reads is to be the writer: over a
// copy-on-write family a snapshot-mode Collection or Server applies each
// window once to the Sharded in its version cell and publishes a pinned
// view of it — a Sharded over a view of every shard's tree (Pin). These
// tests cover that role.

// TestSnapshotConcurrentUpdatesAndQueries hammers a snapshot-mode
// Collection over a Sharded of either copy-on-write family with a window
// writer and concurrent readers (run under -race): readers query the
// published view while the writer takes its sub-batches, and the final
// contents must match a sequential oracle.
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
	c := collection.New(sh, collection.Options{MaxBatch: 1 << 20})
	if c.Stats().Versions != 2 {
		t.Fatal("the Collection publishes no view of the Sharded")
	}
	c.Load(n/2, func(yield func(string, geom.Point) bool) {
		for id := 0; id < n/2 && yield(strconv.Itoa(id), pts[id]); id++ {
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
			var buf []collection.Entry
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
			c.Set(strconv.Itoa(id), pts[id])
			c.Remove(strconv.Itoa(id - n/2))
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

// TestSnapshotReplica checks that a Sharded pins only over a family that
// can: over BruteForce shards Pin returns nil, for good, and the Sharded
// is a plain single-writer index, so a version cell reads it under its
// lock.
func TestSnapshotReplica(t *testing.T) {
	s := New(testOptions(2, 4, brute))
	s.Build(uniquePoints(100, 3))
	var v core.Versioned = s
	for range 2 {
		if view := v.Pin(); view != nil {
			t.Fatal("a Sharded over BruteForce shards pinned a view")
		}
	}
	if s.Current(s) {
		t.Fatal("a Sharded over BruteForce shards calls itself a current view")
	}
	if nodes, bytes := s.Copied(); nodes != 0 || bytes != 0 {
		t.Fatal("a Sharded over BruteForce shards reports copies")
	}
	s.BatchDiff(uniquePoints(10, 4), nil)
	if s.Size() != 110 {
		t.Fatalf("size %d after an update, want 110", s.Size())
	}
}

// TestAdoptShared: a view pinned from a Sharded of copy-on-write trees is
// the same contents and the same partition, tree for tree, until the
// Sharded is updated — and then the view keeps what it had, across a
// Build that moves the region boundaries too. A view refuses updates, and
// Unpin refuses what the Sharded did not pin. Warm Pins allocate nothing.
func TestAdoptShared(t *testing.T) {
	pts := uniquePoints(6000, 5)
	s := New(testOptions(2, 4, spacH))
	s.Build(pts[:4000])
	view := s.Pin().(*Sharded)
	if !s.Current(view) || view.part != s.part || view.Name() != s.Name() {
		t.Fatal("the pinned view is not the Sharded's contents")
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
	verify("view after Pin", view, frozen)

	s.BatchDiff(pts[4000:5000], pts[:1000])
	live := core.NewBruteForce(2)
	live.Build(pts[1000:5000])
	if s.Current(view) {
		t.Fatal("the view is still current after an update")
	}
	verify("writer after its update", s, live)
	verify("view after the writer's update", view, frozen)
	if nodes, bytes := s.Copied(); nodes == 0 || bytes == 0 {
		t.Fatalf("an update of shared trees copied %d nodes, %d bytes", nodes, bytes)
	}

	// A Build rebalances the writer's regions: the view keeps the
	// partition it was pinned with, and its contents.
	s.Build(pts[3000:])
	live.Build(pts[3000:])
	verify("writer after Build", s, live)
	verify("view after the writer's Build", view, frozen)

	for name, update := range map[string]func(){
		"BatchDiff": func() { view.BatchDiff(pts[:3], nil) },
		"Build":     func() { view.Build(pts[:3]) },
		"Pin":       func() { view.Pin() },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "shard: a pinned view is read-only" {
					t.Fatalf("%s of a view: panic %q", name, msg)
				}
			}()
			update()
		}()
	}
	other := New(testOptions(2, 4, spacH))
	for name, idx := range map[string]core.Index{"the Sharded itself": s, "a view of another Sharded": other.Pin()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("unpinned %s", name)
				}
			}()
			s.Unpin(idx)
		}()
	}
	verify("view after the refusals", view, frozen)
	s.Unpin(view)

	cur := s.Pin()
	cycle := func() {
		next := s.Pin()
		s.Unpin(cur)
		cur = next
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm Pin and Unpin allocate %.1f times, want 0", allocs)
	}
	verify("view after warm pins", cur.(*Sharded), live)
}
