package collection

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// withTable calls fn, under the flush lock, with the committed table.
func (c *Collection[ID]) withTable(fn func(t *table[ID])) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	fn(&c.tab)
}

// checkTable compares t with the oracle exactly: every ID of the domain
// through the forward side, every point through the reverse side, and the
// table's own invariants.
func checkTable(tb testing.TB, t *table[int], oracle map[int]geom.Point, ids []int, where string) {
	tb.Helper()
	if err := t.validate(); err != nil {
		tb.Fatalf("%s: %v", where, err)
	}
	if t.live != len(oracle) {
		tb.Fatalf("%s: %d live objects, oracle has %d", where, t.live, len(oracle))
	}
	owners := make(map[geom.Point][]int)
	for _, id := range ids {
		p, ok := t.get(id)
		want, wok := oracle[id]
		if ok != wok || p != want {
			tb.Fatalf("%s: get(%d) = (%v, %t), oracle (%v, %t)", where, id, p, ok, want, wok)
		}
		if ok {
			owners[p] = append(owners[p], id)
		}
	}
	for p, want := range owners {
		var got []int
		for s := t.head(p); s != 0; s = t.next[s] {
			got = append(got, t.name[s])
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			tb.Fatalf("%s: owners of %v = %v, oracle %v", where, p, got, want)
		}
	}
	n := 0
	for id, p := range t.all() {
		if want, ok := oracle[id]; !ok || p != want {
			tb.Fatalf("%s: all yields (%d, %v), oracle (%v, %t)", where, id, p, want, ok)
		}
		n++
	}
	if n != len(oracle) {
		tb.Fatalf("%s: all yields %d objects, oracle has %d", where, n, len(oracle))
	}
}

// colliding returns the first n of gen(0), gen(1), … whose hash ends in one
// of the runs highest 12-bit patterns: in any index of up to 4096 buckets
// they are at home in its last runs buckets. The hashes are seeded per
// process, so the keys are searched for rather than written down.
func colliding[K any](n, runs int, gen func(int) K, hash func(K) uint64) []K {
	keys := make([]K, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k := gen(i); hash(k)&0xFFF+uint64(runs) > 0xFFF {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableAgainstMapOracle drives a table and a plain map with the same
// random insert / move / delete tapes. The colliding key sets are at home
// in the last one or three buckets of both indexes, so probe runs are long,
// wrap around bucket 0, and every deletion shifts a run back across the
// wrap; the third set is the first keys there are, at home anywhere. Half
// of the tape runs unlinked and is relinked before the table is compared.
func TestTableAgainstMapOracle(t *testing.T) {
	const nIDs, nPts, steps = 96, 40, 4000
	id := func(i int) int { return i }
	pt := func(i int) geom.Point { return geom.Pt2(int64(i), 7) }
	for name, runs := range map[string]int{"one-run": 1, "few-runs": 3, "spread": 0xFFF + 1} {
		ids := colliding(nIDs, runs, id, hashID[int])
		pts := colliding(nPts, runs, pt, func(p geom.Point) uint64 { return hashPt(p, 2) })
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := newTable[int](2, 0)
			oracle := make(map[int]geom.Point)
			for step := 0; step < steps; step++ {
				id, p := ids[rng.Intn(nIDs)], pts[rng.Intn(nPts)]
				slot, h := tab.lookup(id)
				// The delete share alternates between 30 % and 90 %, so the
				// indexes grow, drain to nearly empty and refill through
				// recycled slots.
				del := rng.Intn(100) < 30+60*((step/500)%2)
				switch {
				case del && slot != 0:
					tab.remove(slot, h)
					delete(oracle, id)
				case del:
				case slot != 0:
					tab.move(slot, p)
					oracle[id] = p
				default:
					tab.insert(id, h, p)
					oracle[id] = p
				}
				if step%50 == 0 || step == steps-1 {
					if tab.unlinked {
						tab.relink()
					}
					where := fmt.Sprintf("%s seed %d step %d", name, seed, step)
					checkTable(t, &tab, oracle, ids, where)
					// Every other stretch runs the way a window that ends in
					// relink does.
					tab.unlinked = step%100 == 0
				}
			}
			if tab.slots() > nIDs {
				t.Fatalf("%s seed %d: %d slots for at most %d live objects", name, seed, tab.slots(), nIDs)
			}
		}
	}
}

// TestSlotsRecycleUnderIDChurn: 10⁴ live string IDs drawn from 10⁶, a
// tenth of them replaced by fresh ones every window. Slots are recycled,
// so the table stays within twice the live peak however many IDs pass
// through, and a departed ID is zeroed out of its slot rather than pinned.
func TestSlotsRecycleUnderIDChurn(t *testing.T) {
	const live, pool, windows = 10_000, 1_000_000, 60
	for _, snapshot := range []bool{false, true} {
		c := New[string](newNullTwins(), Options{MaxBatch: 1 << 30, Snapshot: snapshot})
		rng := rand.New(rand.NewSource(3))
		name := func(i int) string { return fmt.Sprintf("obj-%07d", i) }
		var ids []int // the live IDs
		isLive := make(map[int]bool)
		admit := func() {
			i := rng.Intn(pool)
			for isLive[i] {
				i = rng.Intn(pool)
			}
			isLive[i] = true
			ids = append(ids, i)
			c.Set(name(i), geom.Pt2(int64(i), int64(rng.Intn(1000))))
		}
		for len(ids) < live {
			admit()
		}
		c.Flush()
		var gone []int
		for w := 0; w < windows; w++ {
			// Arrivals are enqueued before departures, so within a window
			// the table briefly holds both: the peak is live + live/10.
			for range live / 10 {
				admit()
			}
			for range live / 10 {
				j := rng.Intn(len(ids))
				delete(isLive, ids[j])
				gone = append(gone, ids[j])
				c.Remove(name(ids[j]))
				ids[j] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			c.Flush()
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		const peak = live + live/10
		c.withTable(func(tab *table[string]) {
			if tab.live != live {
				t.Fatalf("snapshot=%t: %d live objects, want %d", snapshot, tab.live, live)
			}
			if tab.slots() > 2*peak || len(tab.byID) > 4*peak || len(tab.byPt) > 4*peak {
				t.Fatalf("snapshot=%t: %d slots, %d and %d buckets after %d IDs passed through; live peak %d",
					snapshot, tab.slots(), len(tab.byID), len(tab.byPt), live+windows*live/10, peak)
			}
			held := make(map[string]bool, tab.slots())
			for _, id := range tab.name {
				held[id] = true
			}
			for _, i := range gone {
				if !isLive[i] && held[name(i)] { // unless it was drawn again later
					t.Fatalf("snapshot=%t: removed ID %q is still held by a slot", snapshot, name(i))
				}
			}
		})
		if got, free := c.slots.Load(), c.freeSlots.Load(); got < live || got > 2*peak || free != got-live {
			t.Fatalf("snapshot=%t: gauges read %d slots, %d free; want within [%d, %d] and all but %d free",
				snapshot, got, free, live, 2*peak, live)
		}
		c.Close()
	}
}

// TestTableBytesPerObject is the footprint guard: 10⁵ string-keyed 2-D
// objects ingested through 1024-op windows in snapshot mode cost at most
// 64 B each for the table — the one there is, in snapshot mode too: what
// dropping the Collection gives back to the heap while the ID strings,
// which the caller owns, stay (the twin indexes hold a count each). It
// measured 58.5 with int32 positions, 79.2 with geom.Point ones; a table
// per snapshot copy measured 153, the twin Go maps before that 310.
func TestTableBytesPerObject(t *testing.T) { tableBytesPerObject(t, 2, 64) }

// TestTableBytesPerObject3D is the same guard in 3-D, where a position
// costs 12 B instead of 8: it measured 61.7 B per object.
func TestTableBytesPerObject3D(t *testing.T) { tableBytesPerObject(t, 3, 68) }

func tableBytesPerObject(t *testing.T, dims int, bound float64) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const n = 100_000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("veh-%06d", i)
	}
	heap := heapAfterGC
	c := New[string](newNullTwinsIn(dims), Options{MaxBatch: 1024, Snapshot: true})
	for i, id := range ids {
		p := geom.Pt2(int64(i)*3, int64(i)*5)
		if dims == 3 {
			p[2] = int64(i) * 7
		}
		c.Set(id, p)
	}
	c.Flush()
	if n := c.Len(); n != len(ids) {
		t.Fatalf("%d objects ingested, want %d", n, len(ids))
	}
	with := heap()
	c.Close()
	c = nil
	without := heap() // the ID strings stay
	runtime.KeepAlive(ids)
	perObj := float64(with-without) / n
	t.Logf("%d-D: %.1f B per object (%d B with the collection, %d B without)", dims, perObj, with, without)
	if perObj > bound {
		t.Fatalf("%d-D: table costs %.1f B per object, want at most %.0f", dims, perObj, bound)
	}
}

// The table kernels at the track-ingest population: 3·10⁵ string IDs.
const benchN = 300_000

func benchIDs() ([]string, []geom.Point) {
	ids, pts := make([]string, benchN), make([]geom.Point, benchN)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = fmt.Sprintf("veh-%06d", i)
		pts[i] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
	}
	return ids, pts
}

func benchTable(ids []string, pts []geom.Point) table[string] {
	tab := newTable[string](2, len(ids))
	for i, id := range ids {
		_, h := tab.lookup(id)
		tab.insert(id, h, pts[i])
	}
	return tab
}

// BenchmarkTableLoad fills a presized table, as Collection.Load does;
// ns/op is per table, so divide by 3·10⁵ for per object.
func BenchmarkTableLoad(b *testing.B) {
	ids, pts := benchIDs()
	b.ReportAllocs()
	for b.Loop() {
		tab := benchTable(ids, pts)
		if tab.live != benchN {
			b.Fatal("short load")
		}
	}
}

// BenchmarkTableMove is one SET of a live object on the commit path:
// resolve the ID, then relocate its slot (unlink, shift back, relink).
func BenchmarkTableMove(b *testing.B) {
	ids, pts := benchIDs()
	tab := benchTable(ids, pts)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for b.Loop() {
		slot, _ := tab.lookup(ids[rng.Intn(benchN)])
		tab.move(slot, geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
	}
}

// BenchmarkTableResolve is the read side: one Get by ID and one query hit
// resolved from its point back to its owner.
func BenchmarkTableResolve(b *testing.B) {
	ids, pts := benchIDs()
	tab := benchTable(ids, pts)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	var sink int
	for b.Loop() {
		i := rng.Intn(benchN)
		if _, ok := tab.get(ids[i]); ok {
			sink++
		}
		sink += len(tab.name[tab.head(pts[i])])
	}
	if sink == 0 {
		b.Fatal("nothing resolved")
	}
}

// BenchmarkTableStep is what a snapshot reader that arrives during a
// commit's drain waits for beside it: one planned window of moves run through
// the table (applyTable). ns/op is per window: psid's interactive windows,
// its largest (-maxbatch) at the track-ingest population, and two that take
// the wholesale path: the window of the benchmark's
// collection.reader_stall_us row and one that moves every object.
func BenchmarkTableStep(b *testing.B) {
	ids, pts := benchIDs()
	for _, tc := range []struct{ ops, objects int }{{32, 50_000}, {4096, benchN}, {100_000, 200_000}, {100_000, 100_000}} {
		b.Run(fmt.Sprintf("%d-of-%d", tc.ops, tc.objects), func(b *testing.B) {
			c := New[string](core.NewNull(2), Options{MaxBatch: 1 << 30})
			defer c.Close()
			c.Load(tc.objects, func(yield func(string, geom.Point) bool) {
				for i := 0; i < tc.objects && yield(ids[i], pts[i]); i++ {
				}
			})
			rng := rand.New(rand.NewSource(5))
			w := &c.win
			for _, i := range rng.Perm(tc.objects)[:tc.ops] {
				w.ops = append(w.ops, wal.Op[string]{ID: ids[i]})
			}
			for b.Loop() {
				b.StopTimer()
				for i := range w.ops {
					w.ops[i].P = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
				}
				c.planDiff(w)
				b.StartTimer()
				c.applyTable(w)
			}
		})
	}
}
