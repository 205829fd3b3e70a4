// Server: concurrent serving through the batch-coalescing psi.Collection.
//
// A fleet of vehicles streams position updates from N writer goroutines
// while M reader goroutines answer "nearest vehicles" and "vehicles in
// area" queries — the tile38-style geo-serving scenario. The stack is the
// one psid serves: a Collection over a Sharded SPaC-H. The raw indexes
// are batch-synchronous (not safe for concurrent mutation); the Collection
// coalesces the concurrent moves into batch diffs, each flush fans its
// diff out across the shards in parallel, and every query sees a
// consistent view. Each vehicle's index in the fleet is its ID. The demo
// exits 1 if a move or the final retirement is lost or duplicated.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/examples/internal/demo"

	psi "repro"
)

const (
	side     = int64(1_000_000_000) // universe [0, 1e9]^2
	writers  = 4
	readers  = 4
	duration = 2 * time.Second
)

var (
	vehicles = demo.Scale(200_000)
	moves    = vehicles / 4 // position updates per writer
)

func main() {
	// SPaC-H has the fastest batch updates — the right engine under a
	// write-heavy stream — and Sharded applies each batch across one
	// region per core. The Collection makes the stack safe to share.
	fleet := psi.NewCollection[int](psi.NewSharded(psi.NewSPaCH, 2, psi.Universe2D(side), 0), psi.CollectionOptions{
		MaxBatch:      4096,
		FlushInterval: 2 * time.Millisecond, // readers lag writers by at most ~2ms
	})

	for v, p := range psi.Generate(psi.Uniform, vehicles, 2, side, 1) {
		fleet.Set(v, p)
	}
	fmt.Printf("serving %d vehicles through %s: %d writers, %d readers\n",
		fleet.Len(), fleet.Name(), writers, readers)
	before := fleet.Stats()

	var wgW, wgQ sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	start := time.Now()

	// Writers: each owns a slice of the fleet and streams moves. A move is
	// one Set; the flush nets a vehicle's moves in one window to a single
	// delete-old + insert-new, and BatchDiff applies the window as one step.
	// Get is read-your-writes, so a writer reads back its vehicle's latest
	// position before a flush has made it visible to queries.
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo, hi := w*vehicles/writers, (w+1)*vehicles/writers
			for i := 0; i < moves; i++ {
				v := lo + rng.Intn(hi-lo)
				p, ok := fleet.Get(v)
				if !ok {
					fmt.Fprintf(os.Stderr, "vehicle %d lost its position\n", v)
					os.Exit(1)
				}
				fleet.Set(v, psi.Pt2(jitter(rng, p[0]), jitter(rng, p[1])))
			}
		}(w)
	}

	// Readers: random riders asking for the 5 nearest vehicles, dispatch
	// zones counting coverage.
	for r := 0; r < readers; r++ {
		wgQ.Add(1)
		go func(r int) {
			defer wgQ.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			var hits []psi.CollectionEntry[int]
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := psi.Pt2(rng.Int63n(side), rng.Int63n(side))
				if r%2 == 0 {
					hits = fleet.NearbyIDsAppend(q, 5, hits[:0])
				} else {
					lo := psi.Pt2(max(q[0]-5_000_000, 0), max(q[1]-5_000_000, 0))
					hi := psi.Pt2(q[0]+5_000_000, q[1]+5_000_000)
					hits = fleet.WithinIDsAppend(psi.BoxOf(lo, hi), hits[:0])
				}
				served.Add(1)
			}
		}(r)
	}

	wgW.Wait()
	wrote := time.Since(start).Seconds()
	if left := time.Until(start.Add(duration)); left > 0 {
		time.Sleep(left) // let readers run against the settled fleet too
	}
	close(stop)
	wgQ.Wait()
	fleet.Remove(0) // retire one vehicle: its point goes at the next flush
	fleet.Close()   // the final flush
	elapsed := time.Since(start).Seconds()

	st := fleet.Stats()
	sent, windows := writers*moves, st.Flushes-before.Flushes
	fmt.Printf("in %.2fs: %d moves (%.0f/s) in %d coalesced windows (avg %.0f moves/window; %d applied, %d superseded in-window)\n",
		elapsed, sent, float64(sent)/wrote,
		windows, float64(sent)/float64(windows), st.Moved-before.Moved, st.Cancelled-before.Cancelled)
	n := fleet.Len()
	fmt.Printf("         %d queries served (%.0f/s), fleet size %d after retiring one vehicle\n",
		served.Load(), float64(served.Load())/elapsed, n)
	if n != vehicles-1 {
		fmt.Fprintf(os.Stderr, "fleet size %d, started with %d and retired 1: a move or the removal was lost or duplicated\n", n, vehicles)
		os.Exit(1)
	}
}

// jitter moves one coordinate a small random step, clamped to the universe.
func jitter(rng *rand.Rand, c int64) int64 {
	return min(max(c+rng.Int63n(2_000_001)-1_000_000, 0), side)
}
