package shard

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// The per-shard snapshot-read variant of the shard test suite: with
// Options.Snapshot every shard double-buffers its index behind a
// per-shard epoch, so queries pin published shard versions instead of
// taking shard read locks.

func snapOptions(dims, shards int, strategy Strategy) Options {
	opts := testOptions(dims, shards, strategy, brute)
	opts.Snapshot = true
	return opts
}

// TestSnapshotCrossValidation re-runs the batch-op differential with
// per-shard snapshots on: results must be identical to the locked path,
// and the sharding invariants must hold after every round.
func TestSnapshotCrossValidation(t *testing.T) {
	const n = 3000
	for _, shards := range []int{1, 5, 16} {
		dist := workload.Uniform
		side := dist.Side(2)
		seed := int64(7*shards + 2)
		pool := workload.Generate(dist, 2*n, 2, side, seed)

		s := New(snapOptions(2, shards, HilbertRange))
		ref := core.NewBruteForce(2)
		s.Build(pool[:n])
		ref.Build(pool[:n])
		verify := func(round string) {
			t.Helper()
			if err := s.Validate(); err != nil {
				t.Fatalf("S=%d %s: %v", shards, round, err)
			}
			queries := workload.InDQueries(dist, 15, 2, side, seed+1)
			boxes := workload.RangeQueries(8, 2, side, 0.01, seed+2)
			if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 40}, boxes); err != nil {
				t.Fatalf("S=%d %s: %v", shards, round, err)
			}
		}
		verify("build")

		ins := pool[n : n+n/2]
		s.BatchInsert(ins)
		ref.BatchInsert(ins)
		verify("insert")

		del := pool[:n/3]
		s.BatchDelete(del)
		ref.BatchDelete(del)
		verify("delete")

		s.BatchDiff(pool[:n/4], pool[n:n+n/4])
		ref.BatchDiff(pool[:n/4], pool[n:n+n/4])
		verify("diff")
	}
}

// TestSnapshotConcurrentUpdatesAndQueries hammers a snapshot-mode
// Sharded with concurrent batch writers and readers (run under -race):
// readers must always see each shard either before or after a sub-batch,
// and the final contents must match a sequential oracle.
func TestSnapshotConcurrentUpdatesAndQueries(t *testing.T) {
	const n = 4000
	side := workload.Uniform.Side(2)
	pts := uniquePoints(n, 11)
	s := New(snapOptions(2, 8, HilbertRange))
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
	// One writer: the Sharded consistency contract is per shard, not
	// cross-batch, but batches from one goroutine must serialize cleanly
	// against the readers.
	for i := n / 2; i < n; i += 100 {
		end := min(i+100, n)
		s.BatchDiff(pts[i:end], pts[i-n/2:end-n/2])
	}
	close(stop)
	wg.Wait()

	ref := core.NewBruteForce(2)
	ref.Build(pts[n/2:])
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStats checks the aggregated epoch counters: Epoch is the
// max per-shard epoch (it advances only for shards that received a
// sub-batch), Versions doubles, and the lag is zero when quiescent.
func TestSnapshotStats(t *testing.T) {
	s := New(snapOptions(2, 4, HilbertRange))
	st := s.Stats()
	if st.Shards != 4 || st.Epoch != 0 || st.Versions != 2 || st.RetireLag != 0 {
		t.Fatalf("initial stats: %+v, want 4 shards, epoch 0, 2 versions per shard, lag 0", st)
	}
	pts := uniquePoints(1000, 5)
	s.Build(pts)
	st = s.Stats()
	if st.Size != 1000 || st.Epoch == 0 || st.RetireLag != 0 {
		t.Fatalf("stats after Build: %+v, want size 1000, epoch > 0, lag 0", st)
	}
	prev := st.Epoch
	s.BatchInsert(uniquePoints(200, 6))
	if st = s.Stats(); st.Epoch != prev+1 {
		t.Fatalf("epoch after insert = %d, want %d", st.Epoch, prev+1)
	}
	// Locked mode reports the locked shape.
	l := New(testOptions(2, 4, HilbertRange, brute))
	if st := l.Stats(); st.Epoch != 0 || st.Versions != 1 {
		t.Fatalf("locked stats: %+v, want epoch 0, 1 version per shard", st)
	}
}

// TestSnapshotReplica checks the Replicator wiring: NewReplica returns a
// fresh empty Sharded with the same configuration, fit for the
// Collection/Store Snapshot factory.
func TestSnapshotReplica(t *testing.T) {
	s := New(snapOptions(2, 4, HilbertRange))
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
