package collection

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// withTable calls fn, under the flush lock, with the committed table.
func (c *Collection) withTable(fn func(t *table)) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	fn(c.tab)
}

// checkTable compares t with the oracle exactly: every ID of the domain
// through the forward side, every point through the reverse side, and the
// table's own invariants.
func checkTable(tb testing.TB, t *table, oracle map[string]geom.Point, ids []string, where string) {
	tb.Helper()
	if err := t.validate(); err != nil {
		tb.Fatalf("%s: %v", where, err)
	}
	if t.live != len(oracle) {
		tb.Fatalf("%s: %d live objects, oracle has %d", where, t.live, len(oracle))
	}
	owners := make(map[geom.Point][]string)
	for _, id := range ids {
		p, ok := t.get(id, hashID(id))
		want, wok := oracle[id]
		if ok != wok || p != want {
			tb.Fatalf("%s: get(%q) = (%v, %t), oracle (%v, %t)", where, id, p, ok, want, wok)
		}
		if ok {
			owners[p] = append(owners[p], id)
		}
	}
	for p, want := range owners {
		var got []string
		for s := t.head(p); s != 0; s = t.next[s] {
			got = append(got, t.id(s))
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
			tb.Fatalf("%s: all yields (%q, %v), oracle (%v, %t)", where, id, p, want, ok)
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
	pt := func(i int) geom.Point { return geom.Pt2(int64(i), 7) }
	for name, runs := range map[string]int{"one-run": 1, "few-runs": 3, "spread": 0xFFF + 1} {
		ids := colliding(nIDs, runs, key, hashID)
		pts := colliding(nPts, runs, pt, func(p geom.Point) uint64 { return hashPt(p, 2) })
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := newTable(2, 0)
			oracle := make(map[string]geom.Point)
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
			tab.release()
		}
	}
}

// TestSlotsRecycleUnderIDChurn: 10⁴ live string IDs drawn from 10⁶, a
// tenth of them replaced by fresh ones every window. Slots are recycled,
// so the table stays within twice the live peak however many IDs pass
// through, a departed ID is zeroed out of its slot rather than pinned, and
// the arena's dead bytes stay under its compaction threshold.
func TestSlotsRecycleUnderIDChurn(t *testing.T) {
	const live, pool, windows = 10_000, 1_000_000, 60
	for _, snapshot := range []bool{false, true} {
		c := New(inMode(newNullViews(), snapshot), Options{MaxBatch: 1 << 30})
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
		c.withTable(func(tab *table) {
			if tab.live != live {
				t.Fatalf("snapshot=%t: %d live objects, want %d", snapshot, tab.live, live)
			}
			if tab.slots() > 2*peak || len(tab.byID) > 4*peak || len(tab.byPt) > 4*peak {
				t.Fatalf("snapshot=%t: %d slots, %d and %d buckets after %d IDs passed through; live peak %d",
					snapshot, tab.slots(), len(tab.byID), len(tab.byPt), live+windows*live/10, peak)
			}
			held := make(map[string]bool, tab.slots())
			for s := range tab.next {
				held[tab.id(uint32(s))] = true
			}
			for _, i := range gone {
				if !isLive[i] && held[name(i)] { // unless it was drawn again later
					t.Fatalf("snapshot=%t: removed ID %q is still held by a slot", snapshot, name(i))
				}
			}
			if tab.dead >= minSpare && 2*tab.dead >= len(tab.ids) {
				t.Fatalf("snapshot=%t: %d of the arena's %d bytes are dead, past the compaction threshold", snapshot, tab.dead, len(tab.ids))
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
// 62 B each for the table — the one there is, in snapshot mode too: what
// dropping the Collection gives back to the heap while the ID strings,
// which the caller keeps, stay (the index and its views hold a count each), plus
// what its table maps outside the heap, and what the Collection's emptied
// pending windows keep. It measures 55.4 with flat pending windows; 59.2
// with a Go string tape and map overlay beside the arena and the mapped
// slot arrays; 59.6 with a string header per slot,
// 58.5 with the arrays on the heap and int32 positions, 79.2 with
// geom.Point ones; a table per snapshot copy measured 153, the twin Go maps
// before that 310.
func TestTableBytesPerObject(t *testing.T) { tableBytesPerObject(t, 2, false, 62, 0) }

// TestTableBytesPerObject3D is the same guard in 3-D, where a position
// costs 12 B instead of 8: it measures 60.8 B per object; 64.6 with a Go
// string tape and map overlay, 64.9 with a string header per slot, 61.7
// with the arrays on the heap.
func TestTableBytesPerObject3D(t *testing.T) { tableBytesPerObject(t, 3, false, 68, 0) }

// TestTableBytesPerObjectOwnedIDs is the guard where the table owns its
// IDs, as in psid: each Set gets a fresh string that nobody else keeps, so
// what dropping the Collection gives back includes the IDs. It bounds the
// total, heap and mapped, and the heap part alone, which the collector's
// goal doubles: 55.4 and 60.8 B per object in 2-D and 3-D, 15.3 of it heap
// (the arena, 13.7); 59.3 and 64.6, 19.1 of it heap, with a Go string tape
// and map overlay; 75.6 and 80.9, 40.3 of it heap, with a string header per
// slot and a string per ID.
func TestTableBytesPerObjectOwnedIDs(t *testing.T) {
	t.Run("2-D", func(t *testing.T) { tableBytesPerObject(t, 2, true, 62, 21) })
	t.Run("3-D", func(t *testing.T) { tableBytesPerObject(t, 3, true, 68, 21) })
}

// tableBytesPerObject fails t unless a table of 10⁵ dims-dimensional
// objects costs at most bound bytes each, heap and mapped, and, when
// heapBound is positive, at most heapBound of them on the heap. With
// owned, each ID is spelled afresh for its Set and kept by no one else.
func tableBytesPerObject(t *testing.T, dims int, owned bool, bound, heapBound float64) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const n = 100_000
	var ids []string
	if !owned {
		ids = make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("veh-%06d", i)
		}
	}
	heap := settledHeap
	c := New(newNullViewsIn(dims), Options{MaxBatch: 1024})
	for i := range n {
		p := geom.Pt2(int64(i)*3, int64(i)*5)
		if dims == 3 {
			p[2] = int64(i) * 7
		}
		if owned {
			c.Set(fmt.Sprintf("veh-%06d", i), p)
		} else {
			c.Set(ids[i], p)
		}
	}
	c.Flush()
	if got := c.Len(); got != n {
		t.Fatalf("%d objects ingested, want %d", got, n)
	}
	with := heap()
	st := c.Stats()
	drop(t, c)
	without := heap() // the caller's ID strings, if it keeps them, stay
	runtime.KeepAlive(ids)
	heapObj := float64(with-without) / n
	perObj := heapObj + float64(st.TableMappedBytes)/n
	t.Logf("%d-D: %.1f B per object, %.1f of it heap (%d B of heap with the collection, %d B without, %d B mapped, a %d-byte ID arena)",
		dims, perObj, heapObj, with, without, st.TableMappedBytes, st.TableIDBytes)
	if perObj > bound {
		t.Fatalf("%d-D: table costs %.1f B per object, want at most %.0f", dims, perObj, bound)
	}
	if heapBound > 0 && heapObj > heapBound {
		t.Fatalf("%d-D: table costs %.1f B of heap per object, want at most %.0f", dims, heapObj, heapBound)
	}
}

// drop closes c, lets it go and collects garbage until its cleanup has
// unmapped its table's arrays — until then the cleanup holds the rest of
// the table too, so a heap measured after drop no longer holds any of it.
// The caller must hold no other reference to c. It fails t if that takes
// ten seconds; other Collections dropped earlier can only help.
func drop(t *testing.T, c *Collection) {
	t.Helper()
	c.Close()
	target := mappedBytes.Load() - int64(c.Stats().TableMappedBytes)
	c = nil
	deadline := time.Now().Add(10 * time.Second)
	for mappedBytes.Load() > target {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped ten seconds after the Collection was dropped, want at most %d", mappedBytes.Load(), target)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestTableMappingsReleased follows the table's mappings through a
// Collection's life: Load unmaps the table it displaces in its table step,
// Close unmaps nothing — the Collection keeps answering — and a Collection
// dropped without Close gives its mappings back through its cleanup. Where
// the build keeps the arrays on the heap every count is zero.
func TestTableMappingsReleased(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds keep the table on the heap")
	}
	const n = 50_000
	c := New(newSPaCH(), Options{MaxBatch: 4096})
	for i := range n {
		c.Set(key(i), geom.Pt2(int64(i)*3, int64(i)*5))
	}
	c.Flush()
	big := int64(c.Stats().TableMappedBytes)
	if arraysMapped && big < n*(8+4) {
		t.Fatalf("a table of %d objects maps %d bytes, want at least their positions and chains", n, big)
	}
	before := mappedBytes.Load()
	c.Load(3, func(yield func(string, geom.Point) bool) {
		for i := range 3 {
			if !yield(key(i), geom.Pt2(int64(i)*7+1, 2)) {
				return
			}
		}
	})
	small := int64(c.Stats().TableMappedBytes)
	// Dropped Collections of other tests can only lower the count.
	if got, want := mappedBytes.Load(), before-big+small; got > want || (arraysMapped && small >= big) {
		t.Fatalf("after Load the process maps %d bytes, want at most %d: %d before less the displaced table's %d plus the new one's %d",
			got, want, before, big, small)
	}
	c.Close()
	if p, ok := c.Get("1"); !ok || p != geom.Pt2(8, 2) {
		t.Fatalf("Get after Close = (%v, %t), want ((8, 2), true)", p, ok)
	}
	if got := c.NearbyIDsAppend(geom.Pt2(0, 0), 1, nil); len(got) != 1 || got[0].ID != "0" {
		t.Fatalf("NearbyIDsAppend after Close = %v, want object 0", got)
	}
	if got := c.WithinIDsAppend(geom.Box{Lo: geom.Pt2(0, 0), Hi: geom.Pt2(100, 100)}, nil); len(got) != 3 {
		t.Fatalf("WithinIDsAppend after Close = %v, want the 3 loaded objects", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	drop(t, c)
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

func benchTable(ids []string, pts []geom.Point) table {
	tab := newTable(2, len(ids))
	tab.reserveIDs(len(ids) * entryBytes(ids[0]))
	for i, id := range ids {
		_, h := tab.lookup(id)
		tab.insert(id, h, pts[i])
	}
	return tab
}

// BenchmarkTableLoad fills a presized table and arena, as Collection.Load does;
// ns/op is per table, so divide by 3·10⁵ for per object.
func BenchmarkTableLoad(b *testing.B) {
	ids, pts := benchIDs()
	b.ReportAllocs()
	for b.Loop() {
		tab := benchTable(ids, pts)
		if tab.live != benchN {
			b.Fatal("short load")
		}
		tab.release()
	}
}

// BenchmarkTableMove is one SET of a live object on the commit path:
// resolve the ID, then relocate its slot (unlink, shift back, relink).
func BenchmarkTableMove(b *testing.B) {
	ids, pts := benchIDs()
	tab := benchTable(ids, pts)
	defer tab.release()
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
	defer tab.release()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	var sink int
	for b.Loop() {
		i := rng.Intn(benchN)
		if _, ok := tab.get(ids[i], hashID(ids[i])); ok {
			sink++
		}
		sink += len(tab.id(tab.head(pts[i])))
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
			c := New(core.NewNull(2), Options{MaxBatch: 1 << 30})
			defer c.Close()
			c.Load(tc.objects, func(yield func(string, geom.Point) bool) {
				for i := 0; i < tc.objects && yield(ids[i], pts[i]); i++ {
				}
			})
			rng := rand.New(rand.NewSource(5))
			w := new(window)
			for _, i := range rng.Perm(tc.objects)[:tc.ops] {
				w.add(ids[i], hashID(ids[i]), geom.Point{}, false)
			}
			for b.Loop() {
				b.StopTimer()
				for i := range w.recs {
					w.recs[i].set(geom.Pt2(rng.Int63n(side), rng.Int63n(side)), false)
				}
				c.planDiff(w)
				b.StartTimer()
				c.applyTable(w)
			}
		})
	}
}

// TestChurnAllocatesOnlyArenas counts every allocation over 1000 warm
// windows that insert 512 objects and then remove them, in both read
// modes. A window recycles all its scratch, so what may allocate is the ID
// arena — at most one per minSpare of removed ID bytes, 86 here — and the
// runtime itself: 9 with the IDs held as strings, about 18 with the GC
// cycles the arenas bring.
// The zero-alloc guards use testing.AllocsPerRun, whose mean is truncated
// to an integer, so they would pass an arena every other window;
// runtime.MemStats.Mallocs counts each one.
func TestChurnAllocatesOnlyArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, windows, runtimeAllocs = 512, 1000, 32
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("veh-%06d", i)
	}
	for _, snapshot := range []bool{false, true} {
		mk := func() core.Index { return core.NewNull(2) }
		if snapshot {
			mk = newNullViews
		}
		c := New(mk(), Options{MaxBatch: 1 << 20, Obs: obs.New()})
		window := func() {
			for i, id := range ids {
				c.Set(id, geom.Pt2(int64(i)*17, int64(i)*29))
			}
			c.Flush()
			for _, id := range ids {
				c.Remove(id)
			}
			c.Flush()
		}
		for range 100 { // past the first compactions
			window()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range windows {
			window()
		}
		runtime.ReadMemStats(&after)
		removed := windows * n * entryBytes(ids[0])
		mallocs, bound := after.Mallocs-before.Mallocs, uint64(runtimeAllocs+removed/minSpare)
		t.Logf("snapshot=%t: %d allocations over %d windows that removed %d ID bytes; at most %d", snapshot, mallocs, windows, removed, bound)
		if mallocs > bound {
			t.Fatalf("snapshot=%t: %d allocations over %d windows that removed %d ID bytes, want at most %d: %d of the runtime's and an arena per %d removed bytes",
				snapshot, mallocs, windows, removed, bound, runtimeAllocs, minSpare)
		}
		c.Close()
	}
}

// TestEntryIDsOutliveCompaction keeps the IDs three readers were handed — a
// NearbyIDsAppend, a WithinIDs and a Checkpoint pass — removes their
// objects and churns other IDs through the table until its arena has been
// replaced twice, collecting garbage on the way: every kept ID still reads
// as it was set, in both read modes. The kept IDs are views into arenas the
// table has let go of, which the views alone keep alive.
func TestEntryIDsOutliveCompaction(t *testing.T) {
	const n, churn = 2000, 1000
	kept := func(i int) string { return fmt.Sprintf("kept-%06d", i) }
	at := func(i int) geom.Point { return geom.Pt2(int64(i)*7, int64(i)*11) }
	for _, snapshot := range []bool{false, true} {
		c := New(inMode(newSPaCH(), snapshot), readOpts)
		for i := range n {
			c.Set(kept(i), at(i))
		}
		c.Flush()
		held := c.NearbyIDsAppend(at(0), n/2, nil)
		held = append(held, c.WithinIDs(universe())...)
		c.Checkpoint(func(_ int, entries iter.Seq2[string, geom.Point]) {
			for id, p := range entries {
				held = append(held, Entry{ID: id, Point: p})
			}
		})
		if len(held) != n/2+2*n {
			t.Fatalf("snapshot=%t: readers were handed %d entries, want %d", snapshot, len(held), n/2+2*n)
		}
		for i := range n {
			c.Remove(kept(i))
		}
		c.Flush()
		arena := func() (p *byte) {
			c.withTable(func(tab *table) { p = unsafe.SliceData(tab.ids) })
			return p
		}
		last := arena()
		for replaced, round := 0, 0; replaced < 2; round++ {
			if round == 100 {
				t.Fatalf("snapshot=%t: the arena was replaced %d times in %d rounds of churn, want 2", snapshot, replaced, round)
			}
			for i := range churn {
				c.Set(fmt.Sprintf("lost-%06d", i), at(i))
			}
			c.Flush()
			for i := range churn {
				c.Remove(fmt.Sprintf("lost-%06d", i))
			}
			c.Flush()
			runtime.GC()
			if p := arena(); p != last {
				replaced, last = replaced+1, p
			}
		}
		for _, e := range held {
			if want := kept(int(e.Point[0] / 7)); e.ID != want {
				t.Fatalf("snapshot=%t: an ID handed out as %q reads %q after compaction", snapshot, want, e.ID)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}
