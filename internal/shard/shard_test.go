package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/orthtree"
	"repro/internal/sfc"
	"repro/internal/spactree"
	"repro/internal/workload"
)

// brute is the shard index factory used by the exactness tests: with
// BruteForce children every discrepancy is the fan-out layer's fault.
func brute(dims int, _ geom.Box) core.Index { return core.NewBruteForce(dims) }

// spacH builds the paper's recommended dynamic-workload index.
func spacH(dims int, universe geom.Box) core.Index {
	return spactree.NewSPaC(sfc.Hilbert, dims, universe)
}

// porth builds the paper's P-Orth tree, the other copy-on-write family.
func porth(dims int, universe geom.Box) core.Index { return orthtree.NewDefault(dims, universe) }

func testOptions(dims, shards int, factory func(int, geom.Box) core.Index) Options {
	side := workload.Dist("").Side(dims)
	return Options{
		Dims:     dims,
		Universe: geom.UniverseBox(dims, side),
		Shards:   shards,
		New:      factory,
	}
}

// cellOrders are the cell orders TestCrossValidation runs under. Routing,
// pruning and rebalancing are argued for any order of the cells cut into
// contiguous runs, not for the Hilbert order every Sharded is built with
// (H, a nil key); row-major slabs (G) and Morton ranges (Z) give regions
// that overlap far more, which is the hard case for the KNN frontier.
var cellOrders = []struct {
	name string
	key  func(p *partition, cell int) uint64
}{
	{"G", func(_ *partition, cell int) uint64 { return uint64(cell) }},
	{"Z", func(p *partition, cell int) uint64 {
		cc := p.cellCoords(cell)
		if p.dims == 2 {
			return sfc.Morton2(cc[0], cc[1])
		}
		return sfc.Morton3(cc[0], cc[1], cc[2])
	}},
	{"H", nil},
}

// reorder re-sorts the cells of s, which must be fresh, by key and cuts
// them into equal runs again.
func reorder(s *Sharded, key func(p *partition, cell int) uint64) {
	p := s.part
	sort.Slice(p.order, func(i, j int) bool { return key(p, int(p.order[i])) < key(p, int(p.order[j])) })
	p.applyBounds()
}

// TestCrossValidation drives every (dims, cell order, distribution, shard
// count) combination through all four batch operations, checking the full
// query suite against the brute-force oracle and the sharding invariants
// after every round. k up to 40 on shard counts this high guarantees
// plenty of KNN answers straddle shard boundaries.
func TestCrossValidation(t *testing.T) {
	const n = 3000
	for _, dims := range []int{2, 3} {
		for _, order := range cellOrders {
			for _, dist := range []workload.Dist{workload.Uniform, workload.Varden} {
				for _, shards := range []int{1, 5, 16} {
					name := fmt.Sprintf("%dD/%s/%s/S=%d", dims, order.name, dist, shards)
					t.Run(name, func(t *testing.T) {
						crossValidate(t, dims, order.key, dist, shards, n)
					})
				}
			}
		}
	}
}

func crossValidate(t *testing.T, dims int, order func(*partition, int) uint64, dist workload.Dist, shards, n int) {
	side := dist.Side(dims)
	seed := int64(7*shards + dims)
	pool := workload.Generate(dist, 3*n, dims, side, seed)
	rng := rand.New(rand.NewSource(seed))

	s := New(testOptions(dims, shards, brute))
	if order != nil {
		reorder(s, order)
	}
	ref := core.NewBruteForce(dims)
	s.Build(pool[:n])
	ref.Build(pool[:n])

	verify := func(round string) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		queries := workload.InDQueries(dist, 15, dims, side, seed+1)
		boxes := workload.RangeQueries(8, dims, side, 0.01, seed+2)
		if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 40}, boxes); err != nil {
			t.Fatalf("%s: %v", round, err)
		}
	}
	verify("build")

	// sample draws points to delete from the oracle's current contents,
	// including duplicates (multiset delete semantics).
	sample := func(k int) []geom.Point {
		cur := ref.Points()
		out := make([]geom.Point, k)
		for i := range out {
			out[i] = cur[rng.Intn(len(cur))]
		}
		return out
	}

	ins := pool[n : n+n/2]
	s.BatchInsert(ins)
	ref.BatchInsert(ins)
	verify("insert")

	del := sample(n / 3)
	s.BatchDelete(del)
	ref.BatchDelete(del)
	verify("delete")

	ins, del = pool[2*n:2*n+n/4], sample(n/4)
	s.BatchDiff(ins, del)
	ref.BatchDiff(ins, del)
	verify("diff")

	// Rebuild on the survivors: Build must rebalance and replace.
	cur := append([]geom.Point(nil), ref.Points()...)
	s.Build(cur)
	ref.Build(cur)
	verify("rebuild")
}

// TestSPaCChild re-runs a cross-validation round with real SPaC-H trees
// as shard indexes, confirming the fan-out layer composes with the
// paper's indexes and not just the oracle.
func TestSPaCChild(t *testing.T) {
	const n = 5000
	dist := workload.Varden
	side := dist.Side(2)
	pool := workload.Generate(dist, 2*n, 2, side, 11)

	s := New(testOptions(2, 8, spacH))
	ref := core.NewBruteForce(2)
	s.Build(pool[:n])
	ref.Build(pool[:n])
	s.BatchDiff(pool[n:n+n/4], pool[:n/4])
	ref.BatchDiff(pool[n:n+n/4], pool[:n/4])

	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	queries := workload.InDQueries(dist, 20, 2, side, 12)
	boxes := workload.RangeQueries(10, 2, side, 0.01, 13)
	if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestKNNStraddlesShards pins the best-first frontier on a worst case:
// a tight ring of points centered where four shards meet, so every
// correct answer needs candidates from all of them.
func TestKNNStraddlesShards(t *testing.T) {
	opts := testOptions(2, 4, brute)
	s := New(opts)
	ref := core.NewBruteForce(2)

	mid := opts.Universe.Mid(0)
	pts := make([]geom.Point, 0, 400)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Pt2(
			mid+rng.Int63n(20001)-10000,
			mid+rng.Int63n(20001)-10000,
		))
	}
	// BatchInsert, not Build: the equal-cell boundaries stay, and four
	// equal Hilbert runs of a square grid are its quadrants.
	s.BatchInsert(pts)
	ref.Build(pts)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	center := geom.Pt2(mid, mid)
	for i, sz := range s.ShardSizes(nil) {
		if d := s.part.regions[i].Dist2(center, 2); d > 2 || sz == 0 {
			t.Fatalf("shard %d: region %v is %d from the center and holds %d points; want four quadrants sharing the ring",
				i, s.part.regions[i], d, sz)
		}
	}
	queries := []geom.Point{center, geom.Pt2(mid+1, mid-1), geom.Pt2(mid-5000, mid+5000)}
	if err := core.VerifyQueries(s, ref, queries, []int{1, 10, 100, 400}, nil); err != nil {
		t.Fatal(err)
	}
	// The frontier must not fan out to shards that cannot contribute:
	// k=1 next to a corner of one shard terminates after that shard when
	// the nearest point is closer than the other regions.
	if got := s.KNN(center, 399, nil); len(got) != 399 {
		t.Fatalf("KNN(k=399) returned %d points", len(got))
	}
}

// TestRangePruning checks that boxes inside one region produce exact
// answers (the pruned path) and that universe-wide boxes still see every
// shard.
func TestRangePruning(t *testing.T) {
	opts := testOptions(2, 9, brute)
	s := New(opts)
	ref := core.NewBruteForce(2)
	pts := workload.GenUniform(4000, 2, workload.DefaultSide, 5)
	s.Build(pts)
	ref.Build(pts)

	if got, want := s.RangeCount(opts.Universe), ref.Size(); got != want {
		t.Fatalf("universe RangeCount = %d, want %d", got, want)
	}
	boxes := workload.RangeQueries(20, 2, workload.DefaultSide, 1e-4, 6)
	if err := core.VerifyQueries(s, ref, nil, nil, boxes); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveRebalance: on clustered (Varden) data the Build-time
// equi-depth split must never balance worse than the equal-cell split a
// fresh partition starts from, and must keep the hottest shard well below
// "everything in one shard".
func TestAdaptiveRebalance(t *testing.T) {
	const n, shards = 40000, 8
	pts := workload.GenVarden(n, 2, workload.DefaultSide, 21)

	opts := testOptions(2, shards, brute)
	s := New(opts)
	s.Build(pts)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	adaptive := slices.Max(s.ShardSizes(nil))
	equal := newPartition(2, opts.Universe, shards)
	loads := make([]int, shards)
	for _, p := range pts {
		loads[equal.shardOf(p)]++
	}
	static := slices.Max(loads)
	if adaptive > static {
		t.Fatalf("adaptive max shard load %d worse than static %d", adaptive, static)
	}
	if adaptive == n {
		t.Fatalf("adaptive split left all %d points in one shard", n)
	}
	t.Logf("max shard load on varden: adaptive %d, static %d (ideal %d)", adaptive, static, n/shards)
}

// TestConcurrentUpdatesAndQueries is the -race acceptance test: several
// goroutines commit windows (disjoint fresh inserts, reserved doomed
// removals, one Flush per round) through a locked Collection over the
// Sharded — the front-end's concurrency control; the Sharded itself is
// single-writer, and hiding its copy-on-write capability keeps the
// Collection on one copy — while queriers hammer both query kinds through the same
// Collection, so shard-parallel applies interleave with fan-out queries.
// After the storm the result must match the oracle exactly.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	const (
		nBase    = 6000
		writers  = 4
		queriers = 4
		rounds   = 8
		batch    = 150
	)
	side := workload.DefaultSide
	all := uniquePoints(nBase+writers*rounds*batch, 31)
	base := all[:nBase]
	fresh := all[nBase:]
	doomed := base[:writers*rounds*batch]

	sh := New(testOptions(2, 8, spacH))
	c := collection.New(struct{ core.Index }{sh}, collection.Options{MaxBatch: 1 << 20})
	c.Load(nBase, func(yield func(string, geom.Point) bool) {
		for id := 0; id < nBase && yield(strconv.Itoa(id), base[id]); id++ {
		}
	})

	queries := workload.GenUniform(32, 2, side, 33)
	boxes := workload.RangeQueries(12, 2, side, 0.01, 34)
	var wgW, wgQ sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for r := 0; r < rounds; r++ {
				off := (w*rounds + r) * batch
				for i := off; i < off+batch; i++ {
					c.Set(strconv.Itoa(nBase+i), fresh[i])
					c.Remove(strconv.Itoa(i)) // doomed[i]'s ID
				}
				c.Flush()
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wgQ.Add(1)
		go func(q int) {
			defer wgQ.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if (q+i)%2 == 0 {
					if got := c.NearbyIDs(queries[i%len(queries)], 10); len(got) != 10 {
						t.Errorf("NearbyIDs returned %d of 10 neighbors", len(got))
					}
				} else if got := c.WithinIDs(boxes[i%len(boxes)]); len(got) > len(all) {
					t.Errorf("WithinIDs returned %d objects, more than %d", len(got), len(all))
				}
				if t.Failed() {
					return
				}
			}
		}(q)
	}
	wgW.Wait()
	close(stop)
	wgQ.Wait()

	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := core.NewBruteForce(2)
	oracle.Build(base[len(doomed):])
	oracle.BatchInsert(fresh)
	if err := core.VerifyQueries(sh, oracle, queries, []int{1, 10, 50}, boxes); err != nil {
		t.Fatal(err)
	}
}

// uniquePoints returns n distinct uniform points (distinctness makes the
// concurrent test's final multiset independent of interleaving).
func uniquePoints(n int, seed int64) []geom.Point {
	seen := make(map[geom.Point]bool, n)
	out := make([]geom.Point, 0, n)
	for chunk := int64(0); len(out) < n; chunk++ {
		for _, p := range workload.GenUniform(2*n, 2, workload.DefaultSide, seed+chunk) {
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

// TestShardedImplementsIndex pins the interface surface and defaults.
func TestShardedImplementsIndex(t *testing.T) {
	s := New(testOptions(2, 4, brute))
	var idx core.Index = s
	if idx.Name() != "Sharded[4H](BruteForce)" {
		t.Fatalf("Name = %q", idx.Name())
	}
	if idx.Dims() != 2 || s.Shards() != 4 {
		t.Fatalf("Dims = %d, Shards = %d", idx.Dims(), s.Shards())
	}
	idx.BatchInsert([]geom.Point{geom.Pt2(1, 2), geom.Pt2(3, 4)})
	if idx.Size() != 2 {
		t.Fatalf("Size = %d", idx.Size())
	}
	idx.BatchDelete([]geom.Point{geom.Pt2(1, 2)})
	if idx.Size() != 1 {
		t.Fatalf("Size after delete = %d", idx.Size())
	}
	// Defaults: Shards <= 0 picks GOMAXPROCS, granularity is filled in.
	d := New(Options{Dims: 2, Universe: geom.UniverseBox(2, 100), New: brute})
	if d.Shards() < 1 {
		t.Fatalf("default Shards = %d", d.Shards())
	}
}
