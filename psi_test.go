package psi

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// The root tests are the library's integration suite: every index is
// driven through the same build/insert/delete sequences and must agree
// with the brute-force oracle (and therefore with each other) on the full
// query suite.

const itSide = int64(1 << 20)

func TestAllIndexesAgreeOnStaticData(t *testing.T) {
	for _, dist := range []Dist{Uniform, Varden} {
		pts := Generate(dist, 8000, 2, itSide, 5)
		ref := core.NewBruteForce(2)
		ref.Build(pts)
		queries := workload.InDQueries(dist, 25, 2, itSide, 7)
		boxes := RangeQueries(10, 2, itSide, 0.01, 9)
		for _, idx := range All(2, Universe2D(itSide)) {
			idx.Build(pts)
			if err := core.VerifyQueries(idx, ref, queries, []int{1, 5, 20}, boxes); err != nil {
				t.Errorf("%s on %s: %v", idx.Name(), dist, err)
			}
		}
	}
}

// TestAllIndexesAgreeUnderDynamicWorkload is the paper's incremental
// setting in miniature, and the executable form of its correctness
// methodology (§F.2): per distribution and dimensionality, build, then
// alternate insert and (multiset) delete batches; every index must agree
// with the oracle on the whole query suite after every round.
func TestAllIndexesAgreeUnderDynamicWorkload(t *testing.T) {
	const n, rounds = 6000, 6
	for _, dist := range []Dist{Uniform, workload.Sweepline, Varden} {
		for _, dims := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/%dD", dist, dims), func(t *testing.T) {
				side := dist.Side(dims)
				pool := Generate(dist, n*(rounds+1), dims, side, 11)
				rng := rand.New(rand.NewSource(13))
				ref := core.NewBruteForce(dims)
				indexes := All(dims, geom.UniverseBox(dims, side))
				ref.Build(pool[:n])
				for _, idx := range indexes {
					idx.Build(pool[:n])
				}
				used := n
				for round := 0; round < rounds; round++ {
					if round%2 == 0 {
						batch := pool[used : used+n/4]
						used += n / 4
						ref.BatchInsert(batch)
						for _, idx := range indexes {
							idx.BatchInsert(batch)
						}
					} else {
						cur := ref.Points()
						batch := make([]Point, n/5)
						for i := range batch {
							batch[i] = cur[rng.Intn(len(cur))]
						}
						ref.BatchDelete(batch)
						for _, idx := range indexes {
							idx.BatchDelete(batch)
						}
					}
					queries := workload.InDQueries(dist, 20, dims, side, 17+int64(round))
					boxes := RangeQueries(8, dims, side, 0.02, 19+int64(round))
					for _, idx := range indexes {
						if idx.Size() != ref.Size() {
							t.Errorf("%s round %d: size %d, oracle %d", idx.Name(), round, idx.Size(), ref.Size())
							continue
						}
						if err := core.VerifyQueries(idx, ref, queries, []int{1, 10}, boxes); err != nil {
							t.Errorf("%s round %d: %v", idx.Name(), round, err)
						}
					}
				}
			})
		}
	}
}

func TestAllIndexes3D(t *testing.T) {
	side := workload.DefaultSide3D
	pts := Generate(Cosmo, 6000, 3, side, 23)
	ref := core.NewBruteForce(3)
	ref.Build(pts)
	queries := workload.GenUniform(15, 3, side, 29)
	boxes := RangeQueries(8, 3, side, 0.03, 31)
	for _, idx := range All(3, Universe3D(side)) {
		idx.Build(pts)
		if err := core.VerifyQueries(idx, ref, queries, []int{1, 10}, boxes); err != nil {
			t.Errorf("%s 3D: %v", idx.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	u := Universe2D(itSide)
	// Every name the ByName doc comment lists must resolve, round-trip
	// through Name(), and unknown names must return nil.
	cases := []struct {
		name string
		ok   bool
	}{
		{"P-Orth", true},
		{"Zd-Tree", true},
		{"SPaC-H", true},
		{"SPaC-Z", true},
		{"CPAM-H", true},
		{"CPAM-Z", true},
		{"Boost-R", true},
		{"Pkd-Tree", true},
		{"Log-Tree", true},
		{"BHL-Tree", true},
		{"BruteForce", true},
		{"", false},
		{"nope", false},
		{"spac-h", false}, // names are case-sensitive
	}
	for _, tc := range cases {
		idx := ByName(tc.name, 2, u)
		if !tc.ok {
			if idx != nil {
				t.Errorf("ByName(%q) = %v, want nil", tc.name, idx.Name())
			}
			continue
		}
		if idx == nil {
			t.Errorf("ByName(%q) = nil", tc.name)
			continue
		}
		if idx.Name() != tc.name {
			t.Errorf("ByName(%q).Name() = %q", tc.name, idx.Name())
		}
	}
}

func TestPublicAPISurface(t *testing.T) {
	u := Universe2D(100)
	idx := NewPOrth(2, u)
	idx.Build([]Point{Pt2(1, 1), Pt2(2, 2), Pt2(3, 3)})
	idx.BatchInsert([]Point{Pt2(4, 4)})
	idx.BatchDelete([]Point{Pt2(1, 1)})
	if idx.Size() != 3 {
		t.Fatalf("size %d", idx.Size())
	}
	if got := idx.KNN(Pt2(0, 0), 1, nil); len(got) != 1 || got[0] != Pt2(2, 2) {
		t.Fatalf("KNN = %v", got)
	}
	if idx.RangeCount(BoxOf(Pt2(2, 2), Pt2(4, 4))) != 3 {
		t.Fatal("RangeCount")
	}
	if DefaultOptions(2, u).LeafWrap != 32 {
		t.Fatal("DefaultOptions")
	}
	if Universe3D(5).Hi != Pt3(5, 5, 5) {
		t.Fatal("Universe3D")
	}
}

func TestBatchDiffMoveSemantics(t *testing.T) {
	// A "move" diff — delete old positions, insert new ones — must leave
	// the size unchanged and relocate the points, on every index.
	old := Generate(Uniform, 3000, 2, itSide, 41)
	moved := make([]Point, len(old))
	for i, p := range old {
		moved[i] = Pt2((p[0]+1000)%(itSide+1), p[1])
	}
	for _, idx := range All(2, Universe2D(itSide)) {
		idx.Build(old)
		idx.BatchDiff(moved, old)
		if idx.Size() != len(old) {
			t.Errorf("%s: size %d after move diff, want %d", idx.Name(), idx.Size(), len(old))
			continue
		}
		// The new position must now be present, the old one gone (probe a
		// sample to keep the test fast).
		for i := 0; i < 50; i++ {
			if got := idx.RangeCount(BoxOf(moved[i], moved[i])); got < 1 {
				t.Errorf("%s: moved point %v missing", idx.Name(), moved[i])
				break
			}
		}
	}
}

func TestCollectionWrapsEveryIndex(t *testing.T) {
	// The Collection front-end makes concurrent mutation safe on every
	// index in the library: four writers race Set/Remove over disjoint ID
	// ranges, then the committed state must match the oracle exactly. The
	// index alone decides the read mode: pinned views over the
	// copy-on-write families, bare or sharded, one locked copy over the
	// baselines.
	const writers, perW = 4, 1000
	pts := Generate(Uniform, writers*perW, 2, itSide, 59)
	moved := Generate(Uniform, writers*perW, 2, itSide, 61)
	queries := workload.GenUniform(8, 2, itSide, 67)
	universe := Universe2D(itSide)
	views := map[string]bool{"P-Orth": true, "SPaC-H": true, "SPaC-Z": true, "CPAM-H": true, "CPAM-Z": true, "Sharded[2H](SPaC-H)": true}
	stacks := append(All(2, universe),
		NewSharded(NewSPaCH, 2, universe, 2),
		NewSharded(func(dims int, _ Box) Index { return NewPkd(dims) }, 2, universe, 2))
	for _, idx := range stacks {
		c := NewCollection(idx, CollectionOptions{MaxBatch: 128})
		want := 1
		if views[idx.Name()] {
			want = 2
		}
		if got := c.Stats().Versions; got != want {
			t.Errorf("Collection over %s: %d versions, want %d", idx.Name(), got, want)
		}
		final := make([]map[string]Point, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ids := make(map[string]Point, perW)
				for i := w * perW; i < (w+1)*perW; i++ {
					id := strconv.Itoa(i)
					c.Set(id, pts[i])
					ids[id] = pts[i]
					// A remove or a move mostly lands in the window of the Set
					// it follows, so the netting is on the path too.
					switch i % 4 {
					case 0:
						c.Remove(id)
						delete(ids, id)
					case 1:
						c.Set(id, moved[i])
						ids[id] = moved[i]
					}
				}
				final[w] = ids
			}(w)
		}
		wg.Wait()
		c.Close()
		oracle := make(map[string]Point)
		for _, ids := range final {
			maps.Copy(oracle, ids)
		}
		got := c.WithinIDs(universe)
		seen := make(map[string]bool, len(got))
		for _, e := range got {
			if p, ok := oracle[e.ID]; !ok || p != e.Point || seen[e.ID] {
				t.Fatalf("Collection over %s: WithinIDs entry %v, oracle (%v, %t), repeated %t", idx.Name(), e, p, ok, seen[e.ID])
			}
			seen[e.ID] = true
		}
		if len(got) != len(oracle) {
			t.Fatalf("Collection over %s: WithinIDs(universe) returned %d objects, oracle %d", idx.Name(), len(got), len(oracle))
		}
		ref := core.NewBruteForce(2)
		ref.Build(slices.Collect(maps.Values(oracle)))
		for _, q := range queries {
			near, want := c.NearbyIDs(q, 10), ref.KNN(q, 10, nil)
			if len(near) != len(want) {
				t.Fatalf("Collection over %s: NearbyIDs(%v, 10) returned %d, oracle %d", idx.Name(), q, len(near), len(want))
			}
			for i, e := range near {
				if d, dw := geom.Dist2(e.Point, q, 2), geom.Dist2(want[i], q, 2); d != dw {
					t.Fatalf("Collection over %s: NearbyIDs(%v, 10) neighbor %d dist2 %d, oracle %d", idx.Name(), q, i, d, dw)
				}
			}
		}
	}
}

func TestShardedWrapsEveryIndex(t *testing.T) {
	// The sharding fan-out must preserve every index family's semantics:
	// drive a Sharded over each constructor through a mixed batch
	// sequence and verify the full query suite against the oracle.
	u := Universe2D(itSide)
	pts := Generate(Varden, 6000, 2, itSide, 73)
	fresh := Generate(Varden, 1500, 2, itSide, 79)
	queries := workload.InDQueries(Varden, 15, 2, itSide, 83)
	boxes := RangeQueries(8, 2, itSide, 0.02, 89)
	factories := map[string]func(dims int, universe Box) Index{
		"SPaC-H": NewSPaCH,
		"P-Orth": NewPOrth,
		"Zd":     NewZd,
	}
	for name, factory := range factories {
		s := NewSharded(factory, 2, u, 6)
		s.Build(pts)
		s.BatchInsert(fresh)
		s.BatchDiff(nil, pts[:1000])
		if err := s.Validate(); err != nil {
			t.Errorf("Sharded over %s: %v", name, err)
			continue
		}
		ref := core.NewBruteForce(2)
		ref.Build(pts[1000:])
		ref.BatchInsert(fresh)
		if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 30}, boxes); err != nil {
			t.Errorf("Sharded over %s: %v", name, err)
		}
	}
}

func TestConcurrentQueriesAreSafe(t *testing.T) {
	// Queries are documented safe for concurrent use. Run a mixed query
	// storm on every index; the -race run makes this a real detector.
	pts := Generate(Varden, 10000, 2, itSide, 43)
	queries := Generate(Uniform, 64, 2, itSide, 47)
	boxes := RangeQueries(16, 2, itSide, 0.01, 53)
	for _, idx := range All(2, Universe2D(itSide)) {
		idx.Build(pts)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					switch (w + i) % 3 {
					case 0:
						idx.KNN(queries[i%len(queries)], 10, nil)
					case 1:
						idx.RangeCount(boxes[i%len(boxes)])
					case 2:
						idx.RangeList(boxes[i%len(boxes)], nil)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
