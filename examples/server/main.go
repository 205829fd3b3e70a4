// Server: concurrent serving through the batch-coalescing psi.Collection.
//
// A fleet of vehicles streams position updates from N writer goroutines
// while M reader goroutines answer "nearest vehicles" and "vehicles in
// area" queries — the tile38-style geo-serving scenario. The raw indexes
// are batch-synchronous (not safe for concurrent mutation); the Collection
// coalesces the concurrent moves into batch diffs, applies them through
// the index's parallel batch machinery, and serves every query a
// consistent view. Each vehicle's index in the fleet is its ID.
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
	// write-heavy stream. The Collection makes it safe to share.
	fleet := psi.NewCollection[int](psi.NewSPaCH(2, psi.Universe2D(side)), psi.CollectionOptions{
		MaxBatch:      4096,
		FlushInterval: 2 * time.Millisecond, // readers lag writers by at most ~2ms
	})

	pos := psi.Generate(psi.Uniform, vehicles, 2, side, 1)
	for v, p := range pos {
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
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo, hi := w*vehicles/writers, (w+1)*vehicles/writers
			for i := 0; i < moves; i++ {
				v := lo + rng.Intn(hi-lo)
				pos[v] = psi.Pt2(jitter(rng, pos[v][0]), jitter(rng, pos[v][1]))
				fleet.Set(v, pos[v])
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
					lo := psi.Pt2(max0(q[0]-5_000_000), max0(q[1]-5_000_000))
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
	fleet.Close() // the final flush
	elapsed := time.Since(start).Seconds()

	st := fleet.Stats()
	sent, windows := writers*moves, st.Flushes-before.Flushes
	fmt.Printf("in %.2fs: %d moves (%.0f/s) in %d coalesced windows (avg %.0f moves/window; %d applied, %d superseded in-window)\n",
		elapsed, sent, float64(sent)/wrote,
		windows, float64(sent)/float64(windows), st.Moved-before.Moved, st.Cancelled-before.Cancelled)
	n := fleet.Len()
	fmt.Printf("         %d queries served (%.0f/s), fleet size still %d\n",
		served.Load(), float64(served.Load())/elapsed, n)
	if n != vehicles {
		fmt.Fprintf(os.Stderr, "fleet size %d, started with %d: a move was lost or duplicated\n", n, vehicles)
		os.Exit(1)
	}
}

// jitter moves one coordinate a small random step, clamped to the universe.
func jitter(rng *rand.Rand, c int64) int64 {
	c += rng.Int63n(2_000_001) - 1_000_000
	if c < 0 {
		c = 0
	}
	if c > side {
		c = side
	}
	return c
}

func max0(c int64) int64 {
	if c < 0 {
		return 0
	}
	return c
}
