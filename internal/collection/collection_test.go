package collection

import (
	"iter"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/orthtree"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
)

const side = int64(1 << 20)

func universe() geom.Box { return geom.UniverseBox(2, side) }

// spacH and pOrth are the copy-on-write families, in any dimensionality.
func spacH(dims int, u geom.Box) core.Index { return spactree.NewSPaC(sfc.Hilbert, dims, u) }
func pOrth(dims int, u geom.Box) core.Index { return orthtree.NewDefault(dims, u) }

func newSPaCH() core.Index { return spacH(2, universe()) }

func newPOrth() core.Index { return pOrth(2, universe()) }

// shardedIn returns a four-shard Sharded over family in dims dimensions.
func shardedIn(dims int, family func(dims int, u geom.Box) core.Index) core.Index {
	return shard.New(shard.Options{Dims: dims, Universe: geom.UniverseBox(dims, side), Shards: 4, New: family})
}

// sharded returns a constructor of four-shard 2-D Shardeds over family.
func sharded(family func(dims int, u geom.Box) core.Index) func() core.Index {
	return func() core.Index { return shardedIn(2, family) }
}

// innerStacks enumerates the index stacks a Collection is documented to
// compose over: the two copy-on-write trees, whose snapshot twins share
// them, the brute-force oracle, which stays on locked reads when snapshot
// reads are asked for, and a Sharded fan-out over each.
func innerStacks() map[string]func() core.Index {
	return map[string]func() core.Index{
		"BruteForce":      func() core.Index { return core.NewBruteForce(2) },
		"SPaC-H":          newSPaCH,
		"P-Orth":          newPOrth,
		"Sharded(SPaC-H)": sharded(spacH),
		"Sharded(P-Orth)": sharded(pOrth),
		"Sharded(BruteForce)": sharded(func(dims int, _ geom.Box) core.Index {
			return core.NewBruteForce(dims)
		}),
	}
}

// nullTwins is the zero-cost index of the allocation guards made a
// core.Adopter, so that snapshot reads run over it: all a NullIndex holds
// is its count, and a twin adopts by taking it.
type nullTwins struct{ *core.NullIndex }

func newNullTwins() core.Index { return newNullTwinsIn(2) }

func newNullTwinsIn(dims int) core.Index { return nullTwins{core.NewNull(dims)} }

func (x nullTwins) NewReplica() core.Index { return newNullTwinsIn(x.Dims()) }

func (x nullTwins) Adopt(src core.Index) bool {
	s, ok := src.(nullTwins)
	if ok {
		*x.NullIndex = *s.NullIndex
	}
	return ok
}

func (x nullTwins) Shares(o core.Index) bool {
	_, ok := o.(nullTwins)
	return ok && o.Size() == x.Size()
}

func (x nullTwins) Copied() (nodes, bytes uint64) { return 0, 0 }

func TestGetReadsOwnWritesBeforeFlush(t *testing.T) {
	c := New[string](core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	p0, p1 := geom.Pt2(10, 10), geom.Pt2(20, 20)
	c.Set("a", p0)
	if got, ok := c.Get("a"); !ok || got != p0 {
		t.Fatalf("Get before flush = (%v, %t), want (%v, true)", got, ok, p0)
	}
	// Geometric queries see only flushed state.
	if got := c.WithinIDs(universe()); len(got) != 0 {
		t.Fatalf("pending Set visible to WithinIDs before flush: %v", got)
	}
	c.Set("a", p1)
	if got, _ := c.Get("a"); got != p1 {
		t.Fatalf("Get after second pending Set = %v, want %v", got, p1)
	}
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get after pending Remove still live")
	}
	c.Flush()
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get after flushed Remove still live")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxBatchMakesWindowVisible pins the first clause of the visibility
// contract: the Set that fills the window applies it — no Flush call —
// at Options.MaxBatch, and at DefaultMaxBatch when MaxBatch is unset.
func TestMaxBatchMakesWindowVisible(t *testing.T) {
	for _, tc := range []struct{ maxBatch, trigger int }{{8, 8}, {0, DefaultMaxBatch}} {
		c := New[int](core.NewBruteForce(2), Options{MaxBatch: tc.maxBatch})
		for i := 0; i < tc.trigger-1; i++ {
			c.Set(i, geom.Pt2(int64(i), 1))
		}
		if st := c.Stats(); st.Flushes != 0 || st.Pending != tc.trigger-1 || len(c.WithinIDs(universe())) != 0 {
			t.Fatalf("MaxBatch %d, one below the trigger: %+v, want nothing applied", tc.maxBatch, st)
		}
		c.Set(tc.trigger-1, geom.Pt2(int64(tc.trigger-1), 1))
		if st := c.Stats(); st.Flushes != 1 || st.Pending != 0 || len(c.WithinIDs(universe())) != tc.trigger {
			t.Fatalf("MaxBatch %d: the filling Set did not flush: %+v", tc.maxBatch, st)
		}
		c.Close()
	}
}

func TestMoveChainNetsToOneDiff(t *testing.T) {
	c := New[int](core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	c.Set(1, geom.Pt2(1, 1))
	c.Flush()
	// Five moves in one window must cost the index one delete + one
	// insert and leave no stale position behind.
	for i := int64(2); i <= 6; i++ {
		c.Set(1, geom.Pt2(i, i))
	}
	if applied := c.Flush(); applied != 2 {
		t.Fatalf("flush applied %d index mutations, want 2 (one del + one ins)", applied)
	}
	st := c.Stats()
	if st.Moved != 1 || st.Cancelled != 4 {
		t.Fatalf("stats after netted chain: %+v, want Moved=1 Cancelled=4", st)
	}
	if got := c.WithinIDs(geom.BoxOf(geom.Pt2(6, 6), geom.Pt2(6, 6))); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("final position lookup = %v", got)
	}
	for i := int64(1); i <= 5; i++ {
		if got := c.WithinIDs(geom.BoxOf(geom.Pt2(i, i), geom.Pt2(i, i))); len(got) != 0 {
			t.Fatalf("stale position (%d,%d) still indexed: %v", i, i, got)
		}
	}
	// Set then Remove of a fresh ID in one window nets to nothing.
	c.Set(2, geom.Pt2(9, 9))
	c.Remove(2)
	if applied := c.Flush(); applied != 0 {
		t.Fatalf("set+remove window applied %d mutations, want 0", applied)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// readOpts returns Options with a window no test fills, in either read
// mode: over P-Orth, snapshot reads keep twins.
func readOpts(snapshot bool) Options { return Options{MaxBatch: 1 << 20, Snapshot: snapshot} }

// TestVisibilityAtFlush pins the visibility contract at the flush, in
// both read modes: a pending Set is invisible to geometric queries until
// its window applies, and a window acts like its ops executed one at a
// time — Set then Remove of a fresh ID leaves nothing, while Remove then
// Set leaves the object stored: the no-op Remove of an absent ID must not
// consume the Set enqueued after it.
func TestVisibilityAtFlush(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		c := New[int](newPOrth(), readOpts(snapshot))
		at := func(p geom.Point) int { return len(c.WithinIDs(geom.BoxOf(p, p))) }
		p, q := geom.Pt2(7, 7), geom.Pt2(9, 9)
		c.Set(1, p)
		if at(p) != 0 || len(c.NearbyIDs(p, 1)) != 0 {
			t.Fatalf("snapshot=%t: pending Set visible before the flush", snapshot)
		}
		if c.Pending() != 1 {
			t.Fatalf("snapshot=%t: Pending = %d, want 1", snapshot, c.Pending())
		}
		if n := c.Flush(); n != 1 || at(p) != 1 {
			t.Fatalf("snapshot=%t: flush applied %d, %d objects at %v; want 1, 1", snapshot, n, at(p), p)
		}
		c.Set(2, q)
		c.Remove(2)
		if n := c.Flush(); n != 0 || at(q) != 0 {
			t.Fatalf("snapshot=%t: Set then Remove in one window applied %d, left %d at %v; want 0, 0", snapshot, n, at(q), q)
		}
		c.Remove(2)
		c.Set(2, q)
		if n := c.Flush(); n != 1 || at(q) != 1 {
			t.Fatalf("snapshot=%t: Remove then Set in one window applied %d, left %d at %v; want 1, 1", snapshot, n, at(q), q)
		}
		// Remove then Set back where it stands: the object stays and the
		// index is not touched.
		c.Remove(1)
		c.Set(1, p)
		if n := c.Flush(); n != 0 || at(p) != 1 {
			t.Fatalf("snapshot=%t: Remove then same-position Set applied %d, left %d at %v; want 0, 1", snapshot, n, at(p), p)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

// TestMoveChainInOneWindow is the serving regression behind per-window
// netting, with Removes inside the chain: an object removed and set again
// twice in one window (p0, gone, p1, gone, p2) must net to one relocation
// — not to a delete of p1, which was never stored, nor to an index that
// grows.
func TestMoveChainInOneWindow(t *testing.T) {
	p0, p1, p2 := geom.Pt2(1, 1), geom.Pt2(2, 2), geom.Pt2(3, 3)
	for _, snapshot := range []bool{false, true} {
		c := New[int](newPOrth(), readOpts(snapshot))
		c.Set(1, p0)
		c.Flush()
		c.Remove(1)
		c.Set(1, p1)
		c.Remove(1)
		c.Set(1, p2)
		if n := c.Flush(); n != 2 {
			t.Fatalf("snapshot=%t: the chain applied %d index mutations, want 2 (one del + one ins)", snapshot, n)
		}
		if got := c.WithinIDs(universe()); len(got) != 1 || got[0] != (Entry[int]{1, p2}) {
			t.Fatalf("snapshot=%t: after the chain the index holds %v, want only 1 at %v", snapshot, got, p2)
		}
		if st := c.Stats(); st.Moved != 1 || st.Cancelled != 3 {
			t.Fatalf("snapshot=%t: stats after the chain: %+v, want Moved=1 Cancelled=3", snapshot, st)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestSharedPointResolvesDistinctIDs(t *testing.T) {
	p := geom.Pt2(100, 100)
	// resolved checks that the k hits on p resolve to exactly want, each
	// owner once.
	resolved := func(c *Collection[string], want ...string) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Entry[string]{
			"NearbyIDs": c.NearbyIDs(p, len(want)),
			"WithinIDs": c.WithinIDs(geom.BoxOf(p, p)),
		} {
			var ids []string
			for _, e := range got {
				if e.Point != p {
					t.Fatalf("%s resolved %q at %v, want %v", name, e.ID, e.Point, p)
				}
				ids = append(ids, e.ID)
			}
			slices.Sort(ids)
			if !slices.Equal(ids, want) {
				t.Fatalf("%s on the shared point = %v, want %v", name, ids, want)
			}
		}
	}
	// Remove the head of the owner chain, a middle owner and the last one:
	// the three ways out of a chain.
	for _, at := range []int{0, 2, 3} {
		for _, snapshot := range []bool{false, true} {
			c := New[string](newSPaCH(), Options{Snapshot: snapshot})
			c.Set("far", geom.Pt2(7, 7))
			for _, id := range []string{"a", "b", "c", "d"} {
				c.Set(id, p)
			}
			c.Flush()
			resolved(c, "a", "b", "c", "d")
			var chain []string
			c.withTable(func(tab *table[string]) {
				for s := tab.head(p); s != 0; s = tab.next[s] {
					chain = append(chain, tab.name[s])
				}
			})
			if len(chain) != 4 {
				t.Fatalf("owner chain of the shared point = %v, want four owners", chain)
			}
			c.Remove(chain[at])
			c.Flush()
			rest := slices.Delete(slices.Clone(chain), at, at+1)
			slices.Sort(rest)
			resolved(c, rest...)
			// A move off the point takes the same exit as a remove.
			c.Set(rest[1], geom.Pt2(200, 200))
			c.Flush()
			resolved(c, rest[0], rest[2])
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
	}
}

// verifyAgainstOracle checks the full Collection read suite against a
// plain map: Get and Len exactly, WithinIDs as (ID, point) sets over the
// universe and over its middle, and NearbyIDs as a squared-distance
// sequence (ties arbitrary, as for KNN), in the Collection's dimensions.
func verifyAgainstOracle(t *testing.T, c *Collection[int], oracle map[int]geom.Point, nIDs int) {
	t.Helper()
	dims := c.Dims()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", got, len(oracle))
	}
	for id := 0; id < nIDs; id++ {
		gotP, gotOK := c.Get(id)
		wantP, wantOK := oracle[id]
		if gotOK != wantOK || (gotOK && gotP != wantP) {
			t.Fatalf("Get(%d) = (%v, %t), oracle (%v, %t)", id, gotP, gotOK, wantP, wantOK)
		}
	}
	whole, middle := geom.UniverseBox(dims, side), geom.Box{}
	for d := range dims {
		middle.Lo[d], middle.Hi[d] = side/4, side/4+side/2
	}
	for _, box := range []geom.Box{whole, middle} {
		got := c.WithinIDs(box)
		want := 0
		for _, p := range oracle {
			if box.Contains(p, dims) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("WithinIDs(%v) returned %d, oracle has %d", box, len(got), want)
		}
		ids := make(map[int]bool, len(got))
		for _, e := range got {
			if oracle[e.ID] != e.Point || !box.Contains(e.Point, dims) || ids[e.ID] {
				t.Fatalf("WithinIDs(%v) entry %v, oracle has %v", box, e, oracle[e.ID])
			}
			ids[e.ID] = true
		}
	}
	// NearbyIDs: compare the distance sequence against brute force over
	// the oracle, and require each entry to be a live (ID, point) pair.
	for _, q := range []geom.Point{{0, 0, 0}, {side / 2, side / 2, side / 2}, {side, 1, side / 3}} {
		if dims == 2 {
			q[2] = 0
		}
		for _, k := range []int{1, 3, 17} {
			nn := c.NearbyIDs(q, k)
			dists := make([]int64, 0, len(oracle))
			for _, p := range oracle {
				dists = append(dists, geom.Dist2(p, q, dims))
			}
			sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
			wantLen := k
			if len(dists) < k {
				wantLen = len(dists)
			}
			if len(nn) != wantLen {
				t.Fatalf("NearbyIDs(%v, %d) returned %d entries, want %d", q, k, len(nn), wantLen)
			}
			ids := make(map[int]bool, len(nn))
			for i, e := range nn {
				if oracle[e.ID] != e.Point || ids[e.ID] {
					t.Fatalf("NearbyIDs entry %v is not the oracle position %v, or a repeat", e, oracle[e.ID])
				}
				ids[e.ID] = true
				if got, want := geom.Dist2(e.Point, q, dims), dists[i]; got != want {
					t.Fatalf("NearbyIDs(%v, %d) neighbor %d dist2 %d, oracle %d", q, k, i, got, want)
				}
			}
		}
	}
}

// TestOracleAgreementAcrossStacks drives the same random Set/Remove tape
// through a Collection over every documented inner stack and a map
// oracle, flushing at random points, and verifies the full read suite
// after every flush. This is the sequential-differential core the fuzz
// target generalizes.
func TestOracleAgreementAcrossStacks(t *testing.T) {
	const nIDs = 64
	for name, mk := range innerStacks() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			c := New[int](mk(), Options{MaxBatch: 1 << 20})
			defer c.Close()
			oracle := make(map[int]geom.Point)
			for i := 0; i < 400; i++ {
				id := rng.Intn(nIDs)
				if rng.Intn(5) == 0 {
					c.Remove(id)
					delete(oracle, id)
				} else {
					// A small coordinate domain makes shared points and
					// same-position Sets routine.
					p := geom.Pt2(int64(rng.Intn(64))*(side/64), int64(rng.Intn(64))*(side/64))
					c.Set(id, p)
					oracle[id] = p
				}
				if rng.Intn(25) == 0 {
					c.Flush()
					verifyAgainstOracle(t, c, oracle, nIDs)
				}
			}
			c.Flush()
			verifyAgainstOracle(t, c, oracle, nIDs)
		})
	}
}

// TestThreeDimensions: a 3-D Collection over SPaC-H and over brute force,
// in either read mode, keeps Z in its table. The objects stand in four X-Y
// columns and differ in Z, so a table that stored two coordinates would
// answer Get with Z = 0 once a window commits, and resolve the hits of
// distinct objects in one column to one owner. The committed state then
// goes through Load into a fresh Collection and comes back out of
// Checkpoint whole.
func TestThreeDimensions(t *testing.T) {
	const nIDs = 64
	for name, mk := range map[string]func() core.Index{
		"SPaC-H":     func() core.Index { return spacH(3, geom.UniverseBox(3, side)) },
		"BruteForce": func() core.Index { return core.NewBruteForce(3) },
	} {
		for _, snapshot := range []bool{false, true} {
			rng := rand.New(rand.NewSource(23))
			c := New[int](mk(), readOpts(snapshot))
			oracle := make(map[int]geom.Point)
			for i := 0; i < 600; i++ {
				id := rng.Intn(nIDs)
				if rng.Intn(6) == 0 {
					c.Remove(id)
					delete(oracle, id)
				} else {
					p := geom.Point{int64(rng.Intn(2)) * (side / 2), int64(rng.Intn(2)) * (side / 2), int64(1+rng.Intn(32)) * (side / 32)}
					c.Set(id, p)
					oracle[id] = p
				}
				if rng.Intn(20) == 0 {
					c.Flush()
					verifyAgainstOracle(t, c, oracle, nIDs)
				}
			}
			c.Flush()
			verifyAgainstOracle(t, c, oracle, nIDs)
			c.Close()

			loaded := New[int](mk(), readOpts(snapshot))
			loaded.Load(len(oracle), maps.All(oracle))
			verifyAgainstOracle(t, loaded, oracle, nIDs)
			got := make(map[int]geom.Point)
			loaded.Checkpoint(func(n int, entries iter.Seq2[int, geom.Point]) {
				if n != len(oracle) {
					t.Errorf("%s snapshot=%t: Checkpoint counts %d objects, %d loaded", name, snapshot, n, len(oracle))
				}
				for id, p := range entries {
					got[id] = p
				}
			})
			if !maps.Equal(got, oracle) {
				t.Fatalf("%s snapshot=%t: Checkpoint gives back %v, Load was given %v", name, snapshot, got, oracle)
			}
			loaded.Close()
		}
	}
}

// TestConcurrentMoveChainsLastWriteWins (run under -race): many
// goroutines issue interleaved Set chains on a *shared* ID space across
// flush windows (tiny MaxBatch, a background flusher, and explicit Flush
// calls all racing). Afterwards every written ID must hold some
// goroutine's last write for it — enqueue order is consistent with each
// goroutine's program order, so no intermediate position may survive —
// and the index/fwd/rev triple must validate with no stale points.
func TestConcurrentMoveChainsLastWriteWins(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 600
		nIDs       = 32
	)
	c := New[int](newSPaCH(), Options{MaxBatch: 64, FlushInterval: 200 * time.Microsecond})
	lastWrite := make([]map[int]geom.Point, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			last := make(map[int]geom.Point, nIDs)
			for i := 0; i < opsPerG; i++ {
				id := rng.Intn(nIDs)
				// Tag the point with (goroutine, op) so every write is
				// globally unique and stale survivors are attributable.
				p := geom.Pt2(int64(g*opsPerG+i), int64(id))
				c.Set(id, p)
				last[id] = p
				if i%97 == 0 {
					c.Flush()
				}
			}
			lastWrite[g] = last
		}(g)
	}
	wg.Wait()
	c.Close()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < nIDs; id++ {
		candidates := make(map[geom.Point]bool)
		for g := 0; g < goroutines; g++ {
			if p, ok := lastWrite[g][id]; ok {
				candidates[p] = true
			}
		}
		got, ok := c.Get(id)
		if len(candidates) == 0 {
			if ok {
				t.Fatalf("never-written ID %d is live at %v", id, got)
			}
			continue
		}
		if !ok {
			t.Fatalf("written ID %d is not live", id)
		}
		if !candidates[got] {
			t.Fatalf("ID %d rests at %v, which is no goroutine's last write (an intermediate position survived)", id, got)
		}
		// The committed position must be indexed exactly once.
		if hits := c.WithinIDs(geom.BoxOf(got, got)); len(hits) != 1 || hits[0].ID != id {
			t.Fatalf("ID %d at %v resolves to %v", id, got, hits)
		}
	}
	if got := c.Len(); got > nIDs {
		t.Fatalf("Len = %d, at most %d ids were ever written", got, nIDs)
	}
}

// TestConcurrentDisjointWritersExact runs writers over disjoint ID
// ranges (so the final state is fully deterministic) with query
// goroutines hammering the read suite throughout, then checks the exact
// final state. Also exercised by CI under -race, where the Sharded input
// is readers during shard-parallel flushes with the Collection's lock the
// only one between them.
func TestConcurrentDisjointWritersExact(t *testing.T) {
	for _, inner := range []string{"SPaC-H", "Sharded(SPaC-H)"} {
		t.Run(inner, func(t *testing.T) { concurrentDisjointWritersExact(t, innerStacks()[inner]()) })
	}
}

func concurrentDisjointWritersExact(t *testing.T, idx core.Index) {
	const (
		writers  = 4
		queriers = 3
		idsPerW  = 200
		movesPer = 5 * idsPerW
	)
	c := New[int](idx, Options{MaxBatch: 128})
	final := make([]map[int]geom.Point, writers)
	var wgW, wgQ sync.WaitGroup
	stop := make(chan struct{})
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
				switch (q + i) % 3 {
				case 0:
					c.NearbyIDs(geom.Pt2(int64(i%int(side)), 500), 5)
				case 1:
					c.WithinIDs(geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4)))
				case 2:
					c.Get(i % (writers * idsPerW))
				}
			}
		}(q)
	}
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			last := make(map[int]geom.Point, idsPerW)
			for i := 0; i < movesPer; i++ {
				id := w*idsPerW + rng.Intn(idsPerW)
				if rng.Intn(10) == 0 {
					c.Remove(id)
					delete(last, id)
					continue
				}
				p := geom.Pt2(rng.Int63n(side), rng.Int63n(side))
				c.Set(id, p)
				last[id] = p
			}
			final[w] = last
		}(w)
	}
	wgW.Wait()
	close(stop)
	wgQ.Wait()
	c.Close()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for w := 0; w < writers; w++ {
		want += len(final[w])
		for id, p := range final[w] {
			if got, ok := c.Get(id); !ok || got != p {
				t.Fatalf("ID %d = (%v, %t), writer %d last wrote %v", id, got, ok, w, p)
			}
		}
	}
	if got := c.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestConcurrentStressAgainstOracle drives a Collection over a SPaC-H tree
// with concurrent writers and queriers while a background flusher,
// MaxBatch and explicit Flushes all cut windows. Writers add fresh objects
// and remove a reserved share of the loaded ones, and no object ever
// moves, so every hit a querier resolves must sit at its object's one
// position, and the final state does not depend on the interleaving: the
// full read suite is then checked against the map.
func TestConcurrentStressAgainstOracle(t *testing.T) {
	const (
		nBase    = 4000
		writers  = 4
		queriers = 4
		perG     = 500 // new objects and removals per writer
		nIDs     = nBase + writers*perG
	)
	// The multiplier is odd, so x alone keeps the positions distinct.
	pos := func(id int) geom.Point {
		return geom.Pt2(int64(id)*2654435761&(side-1), int64(id)*40503&(side-1))
	}
	c := New[int](newSPaCH(), Options{MaxBatch: 256, FlushInterval: 500 * time.Microsecond})
	c.Load(nBase, func(yield func(int, geom.Point) bool) {
		for id := 0; id < nBase && yield(id, pos(id)); id++ {
		}
	})

	var wgW, wgQ sync.WaitGroup
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < perG; i++ {
				c.Set(nBase+w*perG+i, pos(nBase+w*perG+i))
				c.Remove(w*perG + i)
				if i%125 == 0 {
					c.Flush()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for q := 0; q < queriers; q++ {
		wgQ.Add(1)
		go func(q int) {
			defer wgQ.Done()
			var dst []Entry[int]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dst = dst[:0]
				switch (q + i) % 3 {
				case 0:
					// At least nBase - writers·perG objects are live throughout.
					if dst = c.NearbyIDsAppend(pos(i%nIDs), 10, dst); len(dst) != 10 {
						t.Errorf("NearbyIDs returned %d of 10 neighbours", len(dst))
						return
					}
				case 1:
					dst = c.WithinIDsAppend(geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/8, side)), dst)
				default:
					if p, ok := c.Get(i % nIDs); ok && p != pos(i%nIDs) {
						t.Errorf("Get(%d) = %v, its one position is %v", i%nIDs, p, pos(i%nIDs))
						return
					}
				}
				for _, e := range dst {
					if e.Point != pos(e.ID) {
						t.Errorf("query resolved %d at %v, its one position is %v", e.ID, e.Point, pos(e.ID))
						return
					}
				}
			}
		}(q)
	}
	wgW.Wait()
	close(stop)
	wgQ.Wait()
	c.Close()

	oracle := make(map[int]geom.Point, nBase)
	for id := writers * perG; id < nIDs; id++ {
		oracle[id] = pos(id)
	}
	verifyAgainstOracle(t, c, oracle, nIDs)
}

// TestOracleAgreementAfterEveryFlush drives one writer through rounds of
// mixed windows — new objects, removals, moves — over a loaded SPaC-H
// tree, with an explicit Flush per round, and checks the full read suite
// against the map after every flush, while a pool of queriers keeps
// reading throughout.
func TestOracleAgreementAfterEveryFlush(t *testing.T) {
	const nBase, rounds, perRound = 3000, 12, 300
	rng := rand.New(rand.NewSource(5))
	random := func() geom.Point { return geom.Pt2(rng.Int63n(side), rng.Int63n(side)) }
	oracle := make(map[int]geom.Point, nBase+rounds*perRound)
	for id := 0; id < nBase; id++ {
		oracle[id] = random()
	}
	c := New[int](newSPaCH(), Options{MaxBatch: 1 << 20})
	defer c.Close()
	c.Load(len(oracle), maps.All(oracle))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }() // before the Close, and on a failed round too
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var dst []Entry[int]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				probe := geom.Pt2(int64(i*7919+q)%side, int64(i*104729)%side)
				dst = c.NearbyIDsAppend(probe, 5, dst[:0])
				dst = c.WithinIDsAppend(geom.BoxOf(probe, geom.Pt2(side-1, side-1)), dst[:0])
			}
		}(q)
	}
	next := nBase
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			switch i % 3 {
			case 0:
				oracle[next] = random()
				c.Set(next, oracle[next])
				next++
			case 1: // the ID may be gone already
				id := rng.Intn(next)
				c.Remove(id)
				delete(oracle, id)
			default: // or set again, gone or not
				id := rng.Intn(next)
				oracle[id] = random()
				c.Set(id, oracle[id])
			}
		}
		c.Flush()
		verifyAgainstOracle(t, c, oracle, next)
	}
}

// TestSequentialEquivalence pins the flush contract on a crowded domain:
// any single-goroutine Set/Remove sequence, flushed at arbitrary points,
// must leave the Collection where executing the ops one at a time leaves a
// map. Twenty-four IDs on a 4×4 grid keep several objects on most points,
// so owner chains grow and shrink in every window.
func TestSequentialEquivalence(t *testing.T) { sequentialEquivalence(t, false) }

func sequentialEquivalence(t *testing.T, snapshot bool) {
	const nIDs, gridSide = 24, 4
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		c := New[int](newSPaCH(), Options{MaxBatch: 1 << 20, Snapshot: snapshot})
		oracle := make(map[int]geom.Point)
		for i := 0; i < 200; i++ {
			id := rng.Intn(nIDs)
			if rng.Intn(3) == 0 {
				c.Remove(id)
				delete(oracle, id)
			} else {
				p := geom.Pt2(rng.Int63n(gridSide), rng.Int63n(gridSide))
				c.Set(id, p)
				oracle[id] = p
			}
			if rng.Intn(10) == 0 {
				c.Flush()
			}
		}
		c.Close()
		for x := int64(0); x < gridSide; x++ {
			for y := int64(0); y < gridSide; y++ {
				p := geom.Pt2(x, y)
				var got, want []int
				for _, e := range c.WithinIDs(geom.BoxOf(p, p)) {
					got = append(got, e.ID)
				}
				for id, at := range oracle {
					if at == p {
						want = append(want, id)
					}
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: %v holds %v, sequential execution gives %v", trial, p, got, want)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLenFlushesAndStats(t *testing.T) {
	c := New[int](core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Set(i, geom.Pt2(int64(i), int64(i)))
	}
	if c.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", c.Pending())
	}
	if got := c.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10 (Len must flush first)", got)
	}
	st := c.Stats()
	if st.Flushes != 1 || st.Inserted != 10 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if c.Name() != "Collection(BruteForce)" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Dims() != 2 {
		t.Fatalf("Dims = %d", c.Dims())
	}
}

// TestSetFlushZeroAllocWarm is the allocation-regression guard for the
// scratch-reuse tentpole: warm Set→Flush cycles run with zero
// steady-state allocations in the Collection layer — the op tape
// double-buffers, the last-write-wins map and diff buffers are recycled,
// and a move rewrites its table slot in place (the point index deletes
// by shifting back, so cycling point keys leaves nothing to regrow).
// Same-position windows and real moves are both exactly zero.
func TestSetFlushZeroAllocWarm(t *testing.T) {
	const n = 512
	posA := make([]geom.Point, n)
	posB := make([]geom.Point, n)
	for i := range posA {
		posA[i] = geom.Pt2(int64(i)*17, int64(i)*29)
		posB[i] = geom.Pt2(int64(i)*17+5, int64(i)*29+3)
	}
	t.Run("same-position windows", func(t *testing.T) {
		c := New[int](core.NewNull(2), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		for i, p := range posA {
			c.Set(i, p)
		}
		c.Flush()
		window := func() {
			for i, p := range posA {
				c.Set(i, p)
			}
			c.Flush()
		}
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm same-position window allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("move windows", func(t *testing.T) {
		c := New[int](core.NewNull(2), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		for i, p := range posA {
			c.Set(i, p)
		}
		c.Flush()
		cur, next := posA, posB
		window := func() {
			for i, p := range next {
				c.Set(i, p)
			}
			c.Flush()
			cur, next = next, cur
		}
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm move window allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestFlushZeroAllocWarm extends the warm-flush guard to windows that
// create and delete objects: a window of new objects followed by one that
// removes them all, in both read modes, and a window in which every object
// is set and removed again, netted to nothing, allocate nothing — freed
// table slots are reused, and the scratch is recycled. (Windows of moves
// are TestSetFlushZeroAllocWarm's.)
func TestFlushZeroAllocWarm(t *testing.T) {
	const n = 512
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Pt2(int64(i)*17, int64(i)*29)
	}
	null := func() core.Index { return core.NewNull(2) }
	singleKind := func(t *testing.T, mk func() core.Index, snapshot bool) {
		c := New[int](mk(), Options{MaxBatch: 1 << 20, Snapshot: snapshot, Obs: obs.New()})
		window := func() {
			for i, p := range pos {
				c.Set(i, p)
			}
			c.Flush()
			for i := range pos {
				c.Remove(i)
			}
			c.Flush()
		}
		window()
		window() // over twins, each copy has now been written first
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm insert and remove windows allocate %.2f/op, want 0", allocs)
		}
	}
	t.Run("single-kind windows", func(t *testing.T) { singleKind(t, null, false) })
	t.Run("snapshot single-kind windows", func(t *testing.T) { singleKind(t, newNullTwins, true) })
	t.Run("netted mixed window", func(t *testing.T) {
		c := New[int](null(), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		window := func() {
			for i, p := range pos {
				c.Set(i, p)
				c.Remove(i)
			}
			if applied := c.Flush(); applied != 0 {
				t.Fatalf("a window of Set+Remove pairs applied %d mutations, want 0", applied)
			}
		}
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm netted window allocates %.2f/op, want 0", allocs)
		}
	})
}
