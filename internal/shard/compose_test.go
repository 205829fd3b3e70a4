package shard

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestStoreOverSharded exercises the documented scaling composition: a
// batch-coalescing Store in front of a Sharded index gives fully
// concurrent single-point ingest (Store coalesces the stream) whose
// flushes then fan out across shards in parallel. Many writers stream
// moves while readers query; the final state must match the oracle.
func TestStoreOverSharded(t *testing.T) {
	const (
		nBase   = 5000
		writers = 4
		perG    = 800
	)
	all := uniquePoints(nBase+writers*perG, 51)
	base := all[:nBase]
	fresh := all[nBase:]
	doomed := base[:writers*perG]

	sharded := New(testOptions(2, 8, spacH))
	sharded.Build(base)
	st := store.New(sharded, store.Options{MaxBatch: 256})

	queries := workload.GenUniform(24, 2, workload.DefaultSide, 53)
	boxes := workload.RangeQueries(10, 2, workload.DefaultSide, 0.01, 54)
	var wgW, wgQ sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			ins := fresh[w*perG : (w+1)*perG]
			del := doomed[w*perG : (w+1)*perG]
			for i := range ins {
				st.Insert(ins[i])
				st.Delete(del[i])
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wgQ.Add(1)
		go func() {
			defer wgQ.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					st.KNN(queries[i%len(queries)], 5, nil)
					st.RangeCount(boxes[i%len(boxes)])
				}
			}
		}()
	}
	wgW.Wait()
	close(stop)
	wgQ.Wait()
	st.Close()

	if err := sharded.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := core.NewBruteForce(2)
	oracle.Build(base[len(doomed):])
	oracle.BatchInsert(fresh)
	if err := core.VerifyQueries(st, oracle, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}
