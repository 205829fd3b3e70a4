// 3D game tick loop: the paper's latency-sensitive motivation (§1 — "in
// 3D games, moving objects must be reflected quickly to affect lighting
// and collision detection"). Each frame, every moving object's old
// position is batch-deleted and its new position batch-inserted; then the
// engine asks for k-nearest neighbors around a subset of objects as
// collision/lighting candidates.
//
//	go run ./examples/game3d
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/examples/internal/demo"

	psi "repro"
)

const (
	side   = int64(1_000_000) // 3D world, 21-bit SFC precision (§E)
	frames = 30
)

var (
	objects = demo.Scale(200_000)
	movers  = objects / 10  // objects that move per frame
	probes  = objects / 100 // collision probes per frame
)

func main() {
	universe := psi.Universe3D(side)
	// History independence makes the P-Orth tree's frame times drift-free
	// over long sessions (§5.4); swap NewSPaCH in for higher churn rates.
	idx := psi.NewPOrth(3, universe)

	world := psi.Generate(psi.Varden, objects, 3, side, 3) // clustered scene
	idx.Build(world)
	rng := rand.New(rand.NewSource(11))

	var update, query time.Duration
	for frame := 0; frame < frames; frame++ {
		// Pick distinct movers and jitter their positions (bounded
		// steps). Indices must be distinct so each delete pairs with the
		// position actually stored in the index.
		perm := rng.Perm(len(world))[:movers]
		oldPos := make([]psi.Point, movers)
		newPos := make([]psi.Point, movers)
		for i, j := range perm {
			oldPos[i] = world[j]
			p := world[j]
			for d := 0; d < 3; d++ {
				p[d] = min(max(p[d]+rng.Int63n(2001)-1000, 0), side)
			}
			newPos[i] = p
			world[j] = p
		}
		t0 := time.Now()
		idx.BatchDelete(oldPos)
		idx.BatchInsert(newPos)
		t1 := time.Now()
		// Collision candidates: 8 nearest objects around each probe.
		buf := make([]psi.Point, 0, 8)
		candidates := 0
		for i := 0; i < probes; i++ {
			buf = idx.KNN(world[rng.Intn(len(world))], 8, buf[:0])
			candidates += len(buf)
		}
		t2 := time.Now()
		update += t1.Sub(t0)
		query += t2.Sub(t1)
		if frame%10 == 9 {
			fmt.Printf("frame %2d: %d objects, %d collision candidates\n",
				frame+1, idx.Size(), candidates)
		}
	}
	fmt.Printf("\n%s over %d frames (%d movers, %d probes per frame):\n",
		idx.Name(), frames, movers, probes)
	fmt.Printf("  position updates %8.3f ms/frame\n", 1e3*update.Seconds()/frames)
	fmt.Printf("  collision probes %8.3f ms/frame\n", 1e3*query.Seconds()/frames)
	fmt.Printf("  frame budget use %8.1f%% of 16.7ms (60 fps)\n",
		100*(update.Seconds()+query.Seconds())/float64(frames)/0.0167)
}
