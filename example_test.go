package psi_test

import (
	"fmt"

	psi "repro"
)

// A Sharded index partitions the universe into regions that update in
// parallel and prune queries to the overlapping shards.
func ExampleNewSharded() {
	universe := psi.Universe2D(1000)
	s := psi.NewSharded(psi.NewSPaCH, 2, universe, 4) // 4 Hilbert-range shards

	s.Build([]psi.Point{psi.Pt2(1, 1), psi.Pt2(2, 2), psi.Pt2(900, 900)})
	s.BatchDiff([]psi.Point{psi.Pt2(3, 3)}, []psi.Point{psi.Pt2(900, 900)})

	nn := s.KNN(psi.Pt2(0, 0), 2, nil) // nearest first
	fmt.Println(s.Size(), nn[0], nn[1])
	// Output: 3 (1,1,0) (2,2,0)
}

// A Collection tracks one point per ID over any index stack: Set moves
// net to minimal batch diffs, and geometric queries resolve back to IDs.
func ExampleNewCollection() {
	universe := psi.Universe2D(1000)
	fleet := psi.NewCollection(psi.NewSPaCH(2, universe), psi.CollectionOptions{})
	defer fleet.Close()

	fleet.Set("a", psi.Pt2(1, 1))
	fleet.Set("b", psi.Pt2(5, 5))
	fleet.Set("a", psi.Pt2(2, 2)) // move: nets to one delete+insert at flush

	p, ok := fleet.Get("a") // read-your-writes, visible pre-flush
	fleet.Flush()
	near := fleet.NearbyIDs(psi.Pt2(0, 0), 1)
	fmt.Println(p, ok, near[0].ID, fleet.Len())
	// Output: (2,2,0) true a 2
}
