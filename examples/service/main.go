// Service: serving the spatial stack over a socket with psid.
//
// Every other example calls the library in process; this one puts the
// full stack — a Collection over one SPaC-H tree, as psid serves it —
// behind the psid network protocol and talks to it like a remote client
// would: newline-delimited JSON commands over TCP (docs/protocol.md), with
// HTTP probe endpoints on the side. The demo starts an in-process server
// on a loopback port, streams vehicle positions from several connections
// in parallel, and answers dispatcher queries over the wire, then shuts
// down gracefully (drain + final flush).
//
//	go run ./examples/service            # full size
//	PSI_EXAMPLE_N=2000 go run ./examples/service   # smoke scale
//
// For a standalone server use cmd/psid; go run ./benchmark -workload
// track-interactive spawns one and measures it.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/examples/internal/demo"

	psi "repro"
)

const side = int64(1_000_000_000) // universe [0, 1e9]^2

func main() {
	vehicles := demo.Scale(100_000)
	const writers = 4

	// The server owns the serving stack; ":0" picks free loopback ports.
	srv := psi.NewServer(
		psi.NewSPaCH(2, psi.Universe2D(side)),
		psi.ServerOptions{MaxBatch: 4096},
	)
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr().String()
	fmt.Printf("psid serving on %s (http %s)\n", addr, srv.HTTPAddr())

	// Writers: one connection each (connections are the unit of serving
	// concurrency — the server runs one goroutine per connection).
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := psi.DialService(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; i < vehicles; i += writers {
				id := fmt.Sprintf("veh-%06d", i)
				if err := c.Set(id, []int64{rng.Int63n(side + 1), rng.Int63n(side + 1)}); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// A dispatcher connection: barrier-flush, then query over the wire.
	c, err := psi.DialService(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %d vehicles over %d connections in %.2fs\n",
		vehicles, writers, time.Since(begin).Seconds())

	incident := []int64{side / 2, side / 2}
	nearby, err := c.Nearby(incident, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest to incident (%d,%d):\n", incident[0], incident[1])
	for _, h := range nearby {
		fmt.Printf("  %s at (%d,%d)\n", h.ID, h.P[0], h.P[1])
	}
	zone := [2][]int64{{side / 4, side / 4}, {side/4 + side/20, side/4 + side/20}}
	inZone, err := c.Within(zone[0], zone[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d vehicles inside the zone\n", len(inZone))

	// Read-your-writes over the wire: a GET sees the caller's latest SET
	// even before a flush makes it visible to geometric queries.
	if err := c.Set("veh-000000", []int64{1, 2}); err != nil {
		log.Fatal(err)
	}
	p, found, err := c.Get("veh-000000")
	if err != nil || !found {
		log.Fatal("lost veh-000000")
	}
	fmt.Printf("veh-000000 moved to (%d,%d) — visible to GET pre-flush\n", p[0], p[1])

	// The probe endpoints a deployment would scrape.
	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET /healthz -> %s", body)
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d objects, %d flushes, %d SETs served (p99 %.0fus), %d in-window supersedes\n",
		st.Objects, st.Flushes, st.Ops["SET"].Count, st.Ops["SET"].P99Us, st.Cancelled)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("graceful shutdown: drained, final flush applied")
}
