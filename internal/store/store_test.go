package store

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sfc"
	"repro/internal/spactree"
	"repro/internal/workload"
)

const side = int64(1 << 20)

func universe() geom.Box { return geom.UniverseBox(2, side) }

// newTestIndex returns the index the stress tests wrap: a SPaC-H tree, the
// paper's recommended default for dynamic workloads.
func newTestIndex() core.Index { return spactree.NewSPaC(sfc.Hilbert, 2, universe()) }

// uniquePoints returns n distinct points drawn from the given seed's
// uniform stream. Distinctness lets the stress tests compute the final
// multiset independently of operation interleaving.
func uniquePoints(n int, seed int64) []geom.Point {
	seen := make(map[geom.Point]bool, n)
	out := make([]geom.Point, 0, n)
	for chunk := int64(0); len(out) < n; chunk++ {
		for _, p := range workload.GenUniform(2*n, 2, side, seed+chunk) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				if len(out) == n {
					break
				}
			}
		}
	}
	return out
}

func TestVisibilityAtFlush(t *testing.T) {
	s := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer s.Close()
	p := geom.Pt2(7, 7)
	s.Insert(p)
	if got := s.RangeCount(geom.BoxOf(p, p)); got != 0 {
		t.Fatalf("pending insert visible before flush: count %d", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if n := s.Flush(); n != 1 {
		t.Fatalf("Flush applied %d, want 1", n)
	}
	if got := s.RangeCount(geom.BoxOf(p, p)); got != 1 {
		t.Fatalf("flushed insert invisible: count %d", got)
	}
	// A flush behaves like sequential execution of the window: inserting
	// and then deleting an absent point nets to nothing...
	q := geom.Pt2(9, 9)
	s.Insert(q)
	s.Delete(q)
	s.Flush()
	if got := s.RangeCount(geom.BoxOf(q, q)); got != 0 {
		t.Fatalf("insert then delete of same point in one window: count %d, want 0", got)
	}
	// ...while the reverse order leaves the point stored: the no-op delete
	// of an absent point must not consume the insert enqueued after it.
	s.Delete(q)
	s.Insert(q)
	s.Flush()
	if got := s.RangeCount(geom.BoxOf(q, q)); got != 1 {
		t.Fatalf("delete then insert of same point in one window: count %d, want 1", got)
	}
}

// TestMaxBatchMakesWindowVisible pins the first clause of the visibility
// contract at this layer: Options.MaxBatch reaches the engine, and the
// enqueue that fills the window applies it — no Flush call. (The trigger
// itself is the engine's and is tested in internal/window.)
func TestMaxBatchMakesWindowVisible(t *testing.T) {
	s := New(core.NewBruteForce(2), Options{MaxBatch: 8})
	defer s.Close()
	pts := uniquePoints(8, 1)
	s.BatchInsert(pts[:7])
	if st := s.Stats(); st.Flushes != 0 || st.Pending != 7 || s.RangeCount(universe()) != 0 {
		t.Fatalf("below MaxBatch: %+v, want nothing applied", st)
	}
	s.Insert(pts[7])
	if st := s.Stats(); st.Flushes != 1 || st.Pending != 0 || s.RangeCount(universe()) != 8 {
		t.Fatalf("the filling enqueue did not flush: %+v", st)
	}
}

// TestMoveChainInOneWindow is the serving regression that motivated
// pair cancellation: a vehicle moved twice before a flush (delete p0,
// insert p1, delete p1, insert p2) must net to one relocation. Raw
// delete-before-insert application would miss the delete of p1 (not yet
// stored when the batch's deletes run) and grow the index.
func TestMoveChainInOneWindow(t *testing.T) {
	s := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer s.Close()
	p0, p1, p2 := geom.Pt2(1, 1), geom.Pt2(2, 2), geom.Pt2(3, 3)
	s.Build([]geom.Point{p0})
	s.Delete(p0)
	s.Insert(p1)
	s.Delete(p1)
	s.Insert(p2)
	s.Flush()
	if got := s.Size(); got != 1 {
		t.Fatalf("size after in-window move chain: %d, want 1", got)
	}
	if got := s.RangeCount(geom.BoxOf(p2, p2)); got != 1 {
		t.Fatalf("final position missing: count %d", got)
	}
	for _, gone := range []geom.Point{p0, p1} {
		if got := s.RangeCount(geom.BoxOf(gone, gone)); got != 0 {
			t.Fatalf("stale position %v still stored", gone)
		}
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1 (the p1 pair)", st.Cancelled)
	}
}

func TestBuildDiscardsPending(t *testing.T) {
	s := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer s.Close()
	s.Insert(geom.Pt2(1, 1))
	pts := uniquePoints(100, 2)
	s.Build(pts)
	if s.Pending() != 0 {
		t.Fatalf("Build left %d pending mutations", s.Pending())
	}
	if got := s.Size(); got != len(pts) {
		t.Fatalf("Size = %d, want %d", got, len(pts))
	}
	if got := s.RangeCount(geom.BoxOf(geom.Pt2(1, 1), geom.Pt2(1, 1))); got != 0 {
		t.Fatal("pre-Build pending insert survived the rebuild")
	}
}

// TestConcurrentStressAgainstOracle is the headline race/correctness test:
// concurrent mutators and queriers drive a Store over a SPaC-H tree.
// Deletions target a reserved slice of the base data that is never
// reinserted and insertions add fresh distinct points, so the final
// multiset is interleaving-independent and a BruteForce oracle can verify
// the full query suite exactly.
func TestConcurrentStressAgainstOracle(t *testing.T) {
	const (
		nBase    = 8000
		writers  = 4
		queriers = 4
		perG     = 1000 // inserts and deletes per writer
	)
	all := uniquePoints(nBase+writers*perG, 3)
	base := all[:nBase]
	fresh := all[nBase:]          // inserted during the storm
	doomed := base[:writers*perG] // deleted during the storm
	idx := newTestIndex()
	idx.Build(base)
	s := New(idx, Options{MaxBatch: 256, FlushInterval: 500 * time.Microsecond})

	queries := workload.GenUniform(32, 2, side, 101)
	boxes := workload.RangeQueries(12, 2, side, 0.01, 103)
	var wgW, wgQ sync.WaitGroup
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			ins := fresh[w*perG : (w+1)*perG]
			del := doomed[w*perG : (w+1)*perG]
			for i := 0; i < perG; i++ {
				s.Insert(ins[i])
				s.Delete(del[i])
				if i%250 == 0 {
					s.Flush()
				}
			}
		}(w)
	}
	stopQ := make(chan struct{})
	for q := 0; q < queriers; q++ {
		wgQ.Add(1)
		go func(q int) {
			defer wgQ.Done()
			for i := 0; ; i++ {
				select {
				case <-stopQ:
					return
				default:
				}
				switch (q + i) % 3 {
				case 0:
					if got := s.KNN(queries[i%len(queries)], 10, nil); len(got) != 10 {
						t.Errorf("KNN returned %d of 10 neighbors", len(got))
						return
					}
				case 1:
					// The live size never exceeds base + all inserts.
					if got := s.RangeCount(universe()); got > nBase+writers*perG {
						t.Errorf("RangeCount(universe) = %d, exceeds upper bound %d",
							got, nBase+writers*perG)
						return
					}
				case 2:
					s.RangeList(boxes[i%len(boxes)], nil)
				}
			}
		}(q)
	}
	wgW.Wait()
	close(stopQ)
	wgQ.Wait()
	s.Close()

	oracle := core.NewBruteForce(2)
	oracle.Build(base[writers*perG:]) // survivors of the base set
	oracle.BatchInsert(fresh)
	if err := core.VerifyQueries(s, oracle, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestOracleAgreementAfterEveryFlush drives one mutator through rounds of
// mixed batches with an explicit flush per round, applying the identical
// batch to a BruteForce oracle, and verifies the full query suite after
// every flush — all while a pool of queriers keeps reading.
func TestOracleAgreementAfterEveryFlush(t *testing.T) {
	const rounds = 12
	all := uniquePoints(6000+rounds*400, 5)
	base := all[:6000]
	fresh := all[6000:]
	idx := newTestIndex()
	idx.Build(base)
	s := New(idx, Options{MaxBatch: 1 << 20})
	defer s.Close()
	oracle := core.NewBruteForce(2)
	oracle.Build(base)

	queries := workload.GenUniform(20, 2, side, 201)
	boxes := workload.RangeQueries(10, 2, side, 0.02, 203)
	stopQ := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopQ:
					return
				default:
					s.KNN(queries[i%len(queries)], 5, nil)
					s.RangeCount(boxes[i%len(boxes)])
				}
			}
		}()
	}
	del := base
	for r := 0; r < rounds; r++ {
		ins := fresh[r*400 : (r+1)*400]
		d := del[r*300 : r*300+300]
		s.BatchInsert(ins)
		s.BatchDelete(d)
		s.Flush()
		oracle.BatchDiff(ins, d)
		if err := core.VerifyQueries(s, oracle, queries, []int{1, 10}, boxes); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	close(stopQ)
	wg.Wait()
}

// TestSequentialEquivalence pins the flush contract: any single-goroutine
// op sequence, flushed at arbitrary points, must leave the Store identical
// to executing the ops one at a time. A 4x4 point domain makes same-point
// insert/delete collisions (the netting edge cases) constant occurrences.
func TestSequentialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	domain := make([]geom.Point, 0, 16)
	for x := int64(0); x < 4; x++ {
		for y := int64(0); y < 4; y++ {
			domain = append(domain, geom.Pt2(x, y))
		}
	}
	for trial := 0; trial < 50; trial++ {
		s := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
		oracle := core.NewBruteForce(2)
		for i := 0; i < 200; i++ {
			p := domain[rng.Intn(len(domain))]
			if rng.Intn(2) == 0 {
				s.Insert(p)
				oracle.BatchInsert([]geom.Point{p})
			} else {
				s.Delete(p)
				oracle.BatchDelete([]geom.Point{p})
			}
			if rng.Intn(10) == 0 {
				s.Flush()
			}
		}
		s.Close()
		for _, p := range domain {
			box := geom.BoxOf(p, p)
			if got, want := s.RangeCount(box), oracle.RangeCount(box); got != want {
				t.Fatalf("trial %d: point %v stored %d times, sequential execution gives %d",
					trial, p, got, want)
			}
		}
	}
}

func TestStoreImplementsIndex(t *testing.T) {
	s := New(core.NewBruteForce(2), Options{})
	defer s.Close()
	var i core.Index = s
	if i.Name() != "Store(BruteForce)" {
		t.Fatalf("Name = %q", i.Name())
	}
	if i.Dims() != 2 {
		t.Fatalf("Dims = %d", i.Dims())
	}
	i.BatchDiff([]geom.Point{geom.Pt2(5, 5)}, nil)
	if i.Size() != 1 {
		t.Fatalf("Size = %d", i.Size())
	}
}

// TestFlushZeroAllocWarm is the allocation-regression guard for the
// tentpole scratch-reuse work: a warm Store flushes with zero
// steady-state allocations of its own — the op log double-buffers, the
// netting buffers and maps are recycled. The inner index is a null stub
// so only the Store layer is measured (real trees allocate during their
// own batch updates, which is out of scope here).
func TestFlushZeroAllocWarm(t *testing.T) {
	pts := uniquePoints(512, 7)
	t.Run("single-kind windows", func(t *testing.T) {
		s := New(core.NewNull(2), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		window := func() {
			s.BatchInsert(pts)
			s.Flush()
			s.BatchDelete(pts)
			s.Flush()
		}
		window() // warm up: buffers grow to the high-water mark
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm single-kind flush allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("netted mixed window", func(t *testing.T) {
		s := New(core.NewNull(2), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		window := func() {
			for _, p := range pts {
				s.Insert(p)
				s.Delete(p)
			}
			s.Flush()
		}
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm netted flush allocates %.2f/op, want 0", allocs)
		}
	})
}
