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

// TestCollectionOverSharded exercises the documented scaling composition:
// a Collection in front of a Sharded turns many writers' single-object
// updates into windows, whose applies then fan out across the shards in
// parallel. Writers stream new objects and removals while readers query;
// afterwards the Sharded itself must hold its invariants and answer the
// full query suite exactly. The Sharded's copy-on-write capability is
// hidden, so the Collection keeps it as its one locked copy (the pinned
// views are snapshot_test.go's).
func TestCollectionOverSharded(t *testing.T) {
	const (
		nBase   = 5000
		writers = 4
		perG    = 800
	)
	all := uniquePoints(nBase+writers*perG, 51)
	sh := New(testOptions(2, 8, spacH))
	c := collection.New(struct{ core.Index }{sh}, collection.Options{MaxBatch: 256})
	c.Load(nBase, func(yield func(string, geom.Point) bool) {
		for id := 0; id < nBase && yield(strconv.Itoa(id), all[id]); id++ {
		}
	})

	queries := workload.GenUniform(24, 2, workload.DefaultSide, 53)
	boxes := workload.RangeQueries(10, 2, workload.DefaultSide, 0.01, 54)
	var wgW, wgQ sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < perG; i++ {
				id := nBase + w*perG + i
				c.Set(strconv.Itoa(id), all[id])
				c.Remove(strconv.Itoa(w*perG + i))
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
					c.NearbyIDs(queries[i%len(queries)], 5)
					c.WithinIDs(boxes[i%len(boxes)])
				}
			}
		}()
	}
	wgW.Wait()
	close(stop)
	wgQ.Wait()
	c.Close()

	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nothing writes the Sharded now, so it can be read directly.
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := core.NewBruteForce(2)
	oracle.Build(all[writers*perG:])
	if err := core.VerifyQueries(sh, oracle, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}
