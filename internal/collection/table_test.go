package collection

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wal"
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
			if tab.dead >= minSpare && 2*tab.dead >= tab.size {
				t.Fatalf("snapshot=%t: %d of the arena's %d entry bytes are dead, past the compaction threshold", snapshot, tab.dead, tab.size)
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
// pending windows keep. It measures 53.2 with the IDs in blocks that are
// never copied; 55.4 with one ID arena grown by copying; 59.2 with a Go
// string tape and map overlay beside the arena and the mapped slot arrays;
// 59.6 with a string header per slot, 58.5 with the arrays on the heap and
// int32 positions, 79.2 with
// geom.Point ones; a table per snapshot copy measured 153, the twin Go maps
// before that 310.
func TestTableBytesPerObject(t *testing.T) { tableBytesPerObject(t, 2, false, 62, 0) }

// TestTableBytesPerObject3D is the same guard in 3-D, where a position
// costs 12 B instead of 8: it measures 58.6 B per object; 60.8 with one
// ID arena grown by copying, 64.6 with a Go string tape and map overlay,
// 64.9 with a string header per slot, 61.7 with the arrays on the heap.
func TestTableBytesPerObject3D(t *testing.T) { tableBytesPerObject(t, 3, false, 68, 0) }

// TestTableBytesPerObjectOwnedIDs is the guard where the table owns its
// IDs, as in psid: each Set gets a fresh string that nobody else keeps, so
// what dropping the Collection gives back includes the IDs. It bounds the
// total, heap and mapped, and the heap part alone, which the collector's
// goal doubles: 53.2 and 58.6 B per object in 2-D and 3-D, 13.1 of it heap
// (the ID blocks, 11.5); 55.4 and 60.8, 15.3 of it heap, with one ID arena
// grown by copying; 59.3 and 64.6, 19.1 of it heap, with a Go string tape
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
	t.Logf("%d-D: %.1f B per object, %.1f of it heap (%d B of heap with the collection, %d B without, %d B mapped, %d B of ID blocks)",
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

// TestTableGrowthAllocation inserts 3·10⁵ fresh IDs one at a time into an
// empty table, as windows do, and counts the heap that allocates: the ID
// entries' bytes and at most one 64 KiB block more, since growth starts a
// new block and never copies one. Where the slot arrays are mappings, the
// ID blocks and their short window list are all the heap the table takes;
// the build that keeps the arrays on the heap skips. It read 9.0 B per
// object, the 9-byte entries alone; 50.7 B when the arena was one
// contiguous slice that grew by copying into a larger one.
func TestTableGrowthAllocation(t *testing.T) {
	if !arraysMapped {
		t.Skip("the slot arrays are on the heap in this build")
	}
	ids := make([]string, benchN)
	live := entryBytes("") // the empty entry
	for i := range ids {
		ids[i] = fmt.Sprintf("%08d", i)
		live += entryBytes(ids[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := newTable(2, 0)
	for i, id := range ids {
		_, h := tab.lookup(id)
		tab.insert(id, h, geom.Pt2(int64(i), int64(i)))
	}
	runtime.ReadMemStats(&after)
	defer tab.release()
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%.1f B of heap per object over %d inserts: %d B for %d B of ID entries in %d B of blocks",
		float64(alloc)/benchN, benchN, alloc, live, tab.held)
	if alloc > uint64(live+winSize) {
		t.Fatalf("inserting %d IDs allocated %d B of heap, want at most their %d B of entries and one %d B block",
			benchN, alloc, live, winSize)
	}
}

// TestOversizedAndBoundaryIDs sets IDs at the edges of the arena's blocks,
// in both read modes: one longer than a window, which takes a block of its
// own across windows; one whose entry starts a new block; one whose entry
// ends exactly where its window and block end; and one after it. Each
// reads back through Get, NearbyIDsAppend, WithinIDs and Checkpoint, and
// through a Recover from the checkpoint; removing the long one compacts
// the arena, and set again it lands across windows inside the compacted
// block; IDs handed out before the compaction still read as they were.
// Validate passes after every step.
func TestOversizedAndBoundaryIDs(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		c := New(inMode(newSPaCH(), snapshot), readOpts)
		at := make(map[string]geom.Point)
		check := func(c *Collection, what string) {
			t.Helper()
			if err := c.Validate(); err != nil {
				t.Fatalf("snapshot=%t: after %s: %v", snapshot, what, err)
			}
			for id, p := range at {
				if got, ok := c.Get(id); !ok || got != p {
					t.Fatalf("snapshot=%t: after %s: Get of the %d-byte ID = (%v, %t), want (%v, true)", snapshot, what, len(id), got, ok, p)
				}
				if got := c.NearbyIDsAppend(p, 1, nil); len(got) != 1 || got[0].ID != id {
					t.Fatalf("snapshot=%t: after %s: NearbyIDsAppend at %v found %d entries, want the %d-byte ID", snapshot, what, p, len(got), len(id))
				}
				if got := c.WithinIDs(geom.Box{Lo: p, Hi: p}); len(got) != 1 || got[0].ID != id {
					t.Fatalf("snapshot=%t: after %s: WithinIDs at %v found %d entries, want the %d-byte ID", snapshot, what, p, len(got), len(id))
				}
			}
			seen := 0
			c.Checkpoint(func(_ int, entries iter.Seq2[string, geom.Point]) {
				for id, p := range entries {
					if want, ok := at[id]; !ok || p != want {
						t.Fatalf("snapshot=%t: after %s: Checkpoint holds a %d-byte ID at %v, want (%v, %t)", snapshot, what, len(id), p, want, ok)
					}
					seen++
				}
			})
			if seen != len(at) {
				t.Fatalf("snapshot=%t: after %s: Checkpoint holds %d entries, want %d", snapshot, what, seen, len(at))
			}
		}
		// set sets id at p and returns where its entry went.
		set := func(id string, p geom.Point) (off, end int) {
			t.Helper()
			c.Set(id, p)
			c.Flush()
			at[id] = p
			check(c, fmt.Sprintf("setting the %d-byte ID", len(id)))
			c.withTable(func(tab *table) {
				s, _ := tab.lookup(id)
				off, end = int(tab.off[s]), tab.end
			})
			return off, end
		}
		long := strings.Repeat("L", 100<<10)
		if off, end := set(long, geom.Pt2(1000, 1000)); off&winMask != 0 || end-off <= winSize {
			t.Fatalf("snapshot=%t: the %d-byte entry runs from %d to %d, want a block of its own across windows", snapshot, entryBytes(long), off, end)
		}
		fresh := "fresh"
		off, end := set(fresh, geom.Pt2(2000, 2000))
		if off&winMask != 0 {
			t.Fatalf("snapshot=%t: the entry after the long one is at %d, want the start of a new block", snapshot, off)
		}
		rest := winSize - end&winMask // to the end of fresh's window, and its block's
		edge := strings.Repeat("E", rest-3)
		if entryBytes(edge) != rest {
			t.Fatalf("snapshot=%t: a %d-byte ID takes %d bytes of entry, want %d", snapshot, len(edge), entryBytes(edge), rest)
		}
		if _, end := set(edge, geom.Pt2(3000, 3000)); end&winMask != 0 {
			t.Fatalf("snapshot=%t: the edge entry ends at %d, want a window boundary", snapshot, end)
		}
		if off, _ := set("after", geom.Pt2(4000, 4000)); off&winMask != 0 {
			t.Fatalf("snapshot=%t: the entry after the edge is at %d, want the start of a new block", snapshot, off)
		}
		kept := c.NearbyIDsAppend(geom.Pt2(1000, 1000), len(at), nil)

		var first *byte
		c.withTable(func(tab *table) { first = unsafe.SliceData(tab.wins[0]) })
		c.Remove(long)
		c.Flush()
		delete(at, long)
		check(c, "removing the long ID")
		c.withTable(func(tab *table) {
			if tab.dead != 0 || unsafe.SliceData(tab.wins[0]) == first {
				t.Fatalf("snapshot=%t: removing the long ID left %d dead bytes in the same blocks, want a compaction", snapshot, tab.dead)
			}
		})
		runtime.GC()
		if len(kept) != 4 || kept[0].ID != long || kept[1].ID != fresh || kept[2].ID != edge || kept[3].ID != "after" {
			t.Fatalf("snapshot=%t: IDs handed out before the compaction read back as %d entries, not the four set", snapshot, len(kept))
		}
		if off, end := set(long, geom.Pt2(5000, 5000)); off>>winBits == (end-1)>>winBits {
			t.Fatalf("snapshot=%t: the long entry set again runs from %d to %d, want it across windows of the compacted block", snapshot, off, end)
		}

		var ops []wal.Op
		c.Checkpoint(func(_ int, entries iter.Seq2[string, geom.Point]) {
			for id, p := range entries {
				ops = append(ops, wal.Op{ID: id, P: p})
			}
		})
		r := New(inMode(newSPaCH(), snapshot), readOpts)
		if err := Recover(r, func(fold func(wal.Op)) error {
			for _, o := range ops {
				fold(o)
			}
			return nil
		}, nil); err != nil {
			t.Fatalf("snapshot=%t: Recover: %v", snapshot, err)
		}
		check(r, "recovering from the checkpoint")
		r.Close()

		for id := range at {
			c.Remove(id)
		}
		c.Flush()
		clear(at)
		check(c, "removing every ID")
		if c.Len() != 0 {
			t.Fatalf("snapshot=%t: %d objects left after removing every ID", snapshot, c.Len())
		}
		c.Close()
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

func benchTable(ids []string, pts []geom.Point) table {
	tab := newTable(2, len(ids))
	for i, id := range ids {
		_, h := tab.lookup(id)
		tab.insert(id, h, pts[i])
	}
	return tab
}

// BenchmarkTableLoad fills a table sized for its objects, as
// Collection.Load does; ns/op is per table, so divide by 3·10⁵ for per
// object.
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
// the table (applyTable), cycling through four windows planned before the
// timed loop. ns/op is per window: psid's interactive windows,
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
			// The windows move the same objects in the same order, and a
			// move keeps its slot, so one plan resolves every window.
			rng := rand.New(rand.NewSource(5))
			moved := rng.Perm(tc.objects)[:tc.ops]
			ws := make([]window, 4)
			for k := range ws {
				for _, i := range moved {
					ws[k].add(ids[i], hashID(ids[i]), geom.Pt2(rng.Int63n(side), rng.Int63n(side)), false)
				}
			}
			c.planDiff(&ws[0])
			for k := 0; b.Loop(); k++ {
				c.applyTable(&ws[k%len(ws)])
			}
		})
	}
}

// TestChurnAllocatesOnlyArenas counts every allocation over 1000 warm
// windows that insert 512 objects and then remove them, in both read
// modes. A window recycles all its scratch, so what may allocate is the ID
// arena's compaction — one block per minSpare of removed ID bytes at most,
// 86 here, which is all it measures — and the runtime itself: 9 with the
// IDs held as strings, about 18 with the GC cycles the blocks bring.
// The zero-alloc guards use testing.AllocsPerRun, whose mean is truncated
// to an integer, so they would pass a block every other window;
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
			t.Fatalf("snapshot=%t: %d allocations over %d windows that removed %d ID bytes, want at most %d: %d of the runtime's and a block per %d removed bytes",
				snapshot, mallocs, windows, removed, bound, runtimeAllocs, minSpare)
		}
		c.Close()
	}
}

// TestEntryIDsOutliveCompaction keeps the IDs three readers were handed — a
// NearbyIDsAppend, a WithinIDs and a Checkpoint pass — removes their
// objects and churns other IDs through the table until a compaction has
// replaced its first ID block twice, collecting garbage on the way: every
// kept ID still reads as it was set, in both read modes. The kept IDs are
// views into blocks the table has let go of, which the views alone keep
// alive.
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
		firstBlock := func() (p *byte) {
			c.withTable(func(tab *table) { p = unsafe.SliceData(tab.wins[0]) })
			return p
		}
		last := firstBlock()
		for replaced, round := 0, 0; replaced < 2; round++ {
			if round == 100 {
				t.Fatalf("snapshot=%t: the first ID block was replaced %d times in %d rounds of churn, want 2", snapshot, replaced, round)
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
			if p := firstBlock(); p != last {
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
