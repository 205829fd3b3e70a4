package shard

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/workload"
)

// A Sharded's part in snapshot reads is to be the twin: a snapshot-mode
// Store/Collection/Server keeps two whole Shardeds (NewReplica), applies
// every window to both and reads the published one. These tests cover
// that role.

// TestSnapshotConcurrentUpdatesAndQueries hammers a snapshot-mode Store
// over Sharded twins with a batch writer and concurrent readers (run
// under -race): readers pin one twin while the other takes its
// sub-batches, and the final contents must match a sequential oracle.
func TestSnapshotConcurrentUpdatesAndQueries(t *testing.T) {
	const n = 4000
	side := workload.Uniform.Side(2)
	pts := uniquePoints(n, 11)
	sh := New(testOptions(2, 8, HilbertRange, brute))
	s := store.New(sh, store.Options{MaxBatch: 1 << 20, Snapshot: sh.NewReplica})
	defer s.Close()
	s.Build(pts[:n/2])

	queries := workload.GenUniform(16, 2, side, 21)
	boxes := workload.RangeQueries(8, 2, side, 0.02, 23)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []geom.Point
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.KNN(queries[i%len(queries)], 10, buf[:0])
				s.RangeCount(boxes[i%len(boxes)])
				buf = s.RangeList(boxes[i%len(boxes)], buf[:0])
			}
		}()
	}
	for i := n / 2; i < n; i += 100 {
		end := min(i+100, n)
		s.BatchDiff(pts[i:end], pts[i-n/2:end-n/2])
		s.Flush()
	}
	close(stop)
	wg.Wait()

	ref := core.NewBruteForce(2)
	ref.Build(pts[n/2:])
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReplica checks the Replicator wiring: NewReplica returns a
// fresh empty Sharded with the same configuration, fit for the
// Collection/Store Snapshot factory.
func TestSnapshotReplica(t *testing.T) {
	s := New(testOptions(2, 4, HilbertRange, brute))
	s.Build(uniquePoints(100, 3))
	r, ok := core.Index(s).(core.Replicator)
	if !ok {
		t.Fatal("Sharded does not implement core.Replicator")
	}
	twin := r.NewReplica()
	if twin.Size() != 0 {
		t.Fatalf("NewReplica starts with %d points, want 0", twin.Size())
	}
	if twin.Name() != s.Name() {
		t.Fatalf("NewReplica Name = %q, original %q", twin.Name(), s.Name())
	}
}
