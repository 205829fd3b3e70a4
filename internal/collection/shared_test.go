package collection

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Snapshot mode over a copy-on-write index: the two committed versions are
// the writer and its published view of one tree, beside the one slot
// table. These tests pin what that is for (memory), what it must not
// change (a pinned reader's answers) and how it can be observed (Current,
// the copy counts in Stats), over the
// stack psid serves, one SPaC-H tree, and over Sharded(SPaC-H) and
// Sharded(P-Orth).
var sharedStacks = []string{"SPaC-H", "Sharded(SPaC-H)", "Sharded(P-Orth)"}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// settledHeap is heapAfterGC once what earlier tests left behind is gone:
// a dropped Collection's cleanup runs after the collection that found it,
// and what it held goes at the next one, so it collects until two readings
// agree.
func settledHeap() uint64 {
	h := heapAfterGC()
	for range 20 {
		time.Sleep(time.Millisecond)
		next := heapAfterGC()
		if next == h {
			break
		}
		h = next
	}
	return h
}

// churned loads n objects into a Collection over mk's index, in either read
// mode, moves a random 4096 of them in each of 20 windows, and returns the
// Collection with the heap it holds, in bytes per object. The ID strings
// are built before the measurement, so it does not count them.
func churned(t *testing.T, mk func() core.Index, n int, snapshot bool) (*Collection, float64) {
	t.Helper()
	ids := keys(n)
	before := settledHeap()
	rng := rand.New(rand.NewSource(41))
	c := New(inMode(mk(), snapshot), Options{MaxBatch: 4096})
	for i := 0; i < n; i++ {
		c.Set(ids[i], geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
	}
	c.Flush()
	for w := 0; w < 20; w++ {
		for i := 0; i < 4096; i++ {
			c.Set(ids[rng.Intn(n)], geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
		}
		c.Flush()
	}
	if got := c.Len(); got != n {
		t.Fatalf("%d objects after the churn, want %d", got, n)
	}
	return c, float64(settledHeap()-before) / float64(n)
}

// TestSharedIndexBytesPerObject is the memory guard of snapshot reads over
// the shared stacks: after a load and twenty 4096-move windows a stack
// holds at most 8 B per object more than the same stack built with locked
// reads (measured: 1 B less over SPaC-H, 1 B more over Sharded(SPaC-H) and
// over Sharded(P-Orth)) — room for the writer's first-touch copies,
// not for a second slot table (58–62 B per object) and far from a second
// tree.
func TestSharedIndexBytesPerObject(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const n = 100_000
	for _, name := range sharedStacks {
		mk := innerStacks()[name]
		snap, snapB := churned(t, mk, n, true)
		if snap.cell.Versions() != 2 {
			t.Fatalf("a Collection over %s did not share its index", name)
		}
		if err := snap.Validate(); err != nil {
			t.Fatal(err)
		}
		drop(t, snap)
		locked, lockedB := churned(t, mk, n, false)
		drop(t, locked)
		t.Logf("%s: %.0f B per object under snapshot reads, %.0f B under locked reads", name, snapB, lockedB)
		if snapB > lockedB+8 {
			t.Fatalf("%s: snapshot reads cost %.0f B per object over locked reads' %.0f B, want at most 8 more", name, snapB-lockedB, lockedB)
		}
	}
}

// TestSteadyFlushAllocation is the allocation guard of psid's own path: a
// Collection over one SPaC-H or P-Orth tree, read through pinned views,
// holds track-ingest's n = 3·10⁵ objects and, after warm-up windows, takes
// 60 windows of 4096 Sets of random objects to random points, each
// flushed; per object the windows moved, it allocates at most its ceiling
// in bytes and in objects. What each window's copies of shared paths
// displace comes back at the Unpin that ends its commit, so the next
// window copies into it. Before they did, the windows allocated SPaC-H
// 723 B and 5.1 allocations and P-Orth 533 B and 5.6 per moved object (at
// n = 10⁵, 373 and 316 B); with the recycler's classes bounded at 2¹⁴
// elements instead of 2¹⁵ they allocated 7–9 B. The ceilings are the
// readings (in the comment) and at most a quarter on top.
func TestSteadyFlushAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, batch, warm, windows = 300_000, 4096, 20, 60
	for _, c := range []struct {
		name           string
		mk             func() core.Index
		bytes, objects float64
	}{
		{"SPaC-H", newSPaCH, 2.0, 0.010}, // 1.5–1.6 B, 0.008
		{"P-Orth", newPOrth, 1.9, 0.011}, // 1.4–1.5 B, 0.009
	} {
		ids := keys(n)
		rng := rand.New(rand.NewSource(43))
		col := New(c.mk(), Options{MaxBatch: batch})
		for _, id := range ids {
			col.Set(id, geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
		}
		col.Flush()
		if col.cell.Versions() != 2 {
			t.Fatalf("a Collection over %s did not share its index", c.name)
		}
		window := func() {
			for range batch {
				col.Set(ids[rng.Intn(n)], geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
			}
			col.Flush()
		}
		// A collection takes back the writer's pool, to be refilled by the
		// windows after it: one now, with the heap far below its next
		// goal, keeps one out of the windows measured.
		runtime.GC()
		for range warm {
			window()
		}
		moved := col.Stats().Moved
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range windows {
			window()
		}
		runtime.ReadMemStats(&after)
		moved = col.Stats().Moved - moved
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(moved)
		objects := float64(after.Mallocs-before.Mallocs) / float64(moved)
		if err := col.Validate(); err != nil {
			t.Fatal(err)
		}
		drop(t, col)
		t.Logf("%s: %.1f B and %.3f allocations per moved object over %d windows of %d Sets", c.name, bytes, objects, windows, batch)
		if bytes > c.bytes || objects > c.objects {
			t.Errorf("%s: %.1f B and %.3f allocations per moved object, ceilings %.1f B and %.3f", c.name, bytes, objects, c.bytes, c.objects)
		}
	}
}

// TestOneTablePerCollection: the slot table is not part of the versioned
// state — a version is a bare core.Index, the Collection has one table — in
// either read mode, over either copy-on-write family, while snapshot mode
// still keeps two versions, and over a baseline that stays on locked reads
// when snapshot reads are asked for; and a window reaches that table exactly once: n first
// Sets hand out n slots (a second pass over the window would hand out n
// more, none would leave the table empty). The step is the same one in
// either mode too: a window over a quarter of the slots is relinked
// wholesale, a smaller one applied op by op. What tells them apart from
// outside is a shared point's owner chain, which relink leaves headed by the
// lowest slot and op-by-op linking by the first owner moved there.
func TestOneTablePerCollection(t *testing.T) {
	tables := func(of reflect.Type) (n int) {
		for i := 0; i < of.NumField(); i++ {
			if of.Field(i).Type == reflect.TypeFor[*table]() {
				n++
			}
		}
		return n
	}
	if got := tables(reflect.TypeFor[Collection]()); got != 1 {
		t.Fatalf("Collection holds %d tables, want one", got)
	}
	const n = 300
	for name, tc := range map[string]struct {
		mk       func() core.Index
		snapshot bool
		versions int
	}{
		"locked":                    {newSPaCH, false, 1},
		"snapshot, Sharded(SPaC-H)": {innerStacks()["Sharded(SPaC-H)"], true, 2},
		"snapshot, P-Orth":          {newPOrth, true, 2},
		"baseline":                  {innerStacks()["BruteForce"], true, 1},
	} {
		c := New(inMode(tc.mk(), tc.snapshot), readOpts)
		oracle := make(map[string]geom.Point)
		set := func(i int, p geom.Point) {
			c.Set(key(i), p)
			oracle[key(i)] = p
		}
		headAt := func(p geom.Point) (id string) {
			c.withTable(func(tab *table) { id = tab.id(tab.head(p)) })
			return id
		}
		for w := 0; w < 3; w++ { // each copy is written first at least once
			for i := 0; i < n; i++ {
				set(w*n+i, geom.Pt2(int64(i)*50+7, int64(w)))
			}
			c.Flush()
			c.withTable(func(tab *table) {
				if want := (w + 1) * n; tab.slots() != want || tab.live != want {
					t.Fatalf("%s: %d slots, %d live after %d first Sets", name, tab.slots(), tab.live, want)
				}
			})
		}
		// A third of the slots in one window, highest ID first, IDs 2j and
		// 2j+1 onto one point: wholesale, so the pair's lower slot heads it.
		for i := n - 1; i >= 0; i-- {
			set(i, geom.Pt2(int64(i/2)*50+11, 5))
		}
		c.Flush()
		if got := headAt(oracle["0"]); got != "0" {
			t.Fatalf("%s: %q heads the chain of IDs 0 and 1 after a %d-op window over %d slots, want 0: the window was not relinked", name, got, n, 3*n)
		}
		// Two ops the same way: op by op, so the first one moved heads it.
		set(2*n+1, geom.Pt2(3, 9))
		set(2*n, geom.Pt2(3, 9))
		c.Flush()
		if got := headAt(oracle[key(2*n)]); got != key(2*n+1) {
			t.Fatalf("%s: %q heads the chain of IDs %d and %d after a 2-op window, want %d", name, got, 2*n, 2*n+1, 2*n+1)
		}
		verifyAgainstOracle(t, c, oracle, 3*n)
		if st := c.Stats(); st.Versions != tc.versions {
			t.Fatalf("%s: Stats.Versions = %d, want %d", name, st.Versions, tc.versions)
		}
		c.Close()
	}
}

// TestSharedIndexStaysOneTree: between commits the writer of a shared
// index and its published view are one structure — Current, which for the
// trees is pointer equality of every shard's root — and answer alike; a
// window copies the paths it touches and no more; Load builds once and
// leaves them one structure again.
func TestSharedIndexStaysOneTree(t *testing.T) {
	for _, name := range sharedStacks {
		t.Run(name, func(t *testing.T) { sharedIndexStaysOneTree(t, innerStacks()[name]) })
	}
}

func sharedIndexStaysOneTree(t *testing.T, mk func() core.Index) {
	const n = 40_000
	rng := rand.New(rand.NewSource(43))
	idx := mk()
	c := New(idx, readOpts)
	defer c.Close()
	pos := make(map[string]geom.Point, n)
	for i := 0; i < n; i++ {
		pos[key(i)] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
		c.Set(key(i), pos[key(i)])
	}
	c.Flush()
	check := func(when string) {
		t.Helper()
		v := c.cell.Acquire()
		defer c.cell.Release()
		if !idx.(core.Versioned).Current(v.Index) {
			t.Fatalf("%s: the writer and the published view are not one structure", when)
		}
		q := geom.Pt2(rng.Int63n(side), rng.Int63n(side))
		box := geom.BoxOf(geom.Pt2(q[0]/2, q[1]/2), q)
		if !slices.Equal(idx.KNN(q, 8, nil), v.Index.KNN(q, 8, nil)) ||
			idx.RangeCount(box) != v.Index.RangeCount(box) {
			t.Fatalf("%s: the writer and the published view answer differently", when)
		}
		if err := c.cell.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after the load")

	nodesBefore := c.Stats().CowNodes
	const windows, moves = 10, 100
	for w := 0; w < windows; w++ {
		for i := 0; i < moves; i++ {
			id := key(rng.Intn(n))
			pos[id] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
			c.Set(id, pos[id])
		}
		c.Flush()
		check("after a window")
	}
	// A move touches two leaves and the paths above them: tens of nodes,
	// however large the tree. n/40 leaves and as many interior nodes exist.
	st := c.Stats()
	perWindow := float64(st.CowNodes-nodesBefore) / windows
	if perWindow == 0 || perWindow > 40*moves || st.CowBytes == 0 || st.Versions != 2 {
		t.Fatalf("a %d-move window copied %.0f nodes (%d bytes in all): want some, far fewer than the tree's %d",
			moves, perWindow, st.CowBytes, 2*n/40)
	}

	c.Load(len(pos), func(yield func(string, geom.Point) bool) {
		for id, p := range pos {
			if !yield(id, p) {
				return
			}
		}
	})
	check("after Load")
}

// TestPinnedReaderKeepsItsAnswersAcrossACommit: a reader that holds the
// published version while a window commits reads, from the tree the window
// has just been applied beside, exactly what it read before. The commit
// waits for it — RetireLag 1 — and cannot finish until it lets go; then a
// new reader sees the window.
func TestPinnedReaderKeepsItsAnswersAcrossACommit(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(47))
	c := New(innerStacks()["Sharded(SPaC-H)"](), readOpts)
	defer c.Close()
	for i := 0; i < n; i++ {
		c.Set(key(i), geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
	}
	c.Flush()

	queries := make([]geom.Point, 12)
	for i := range queries {
		queries[i] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
	}
	answers := func(idx core.Index) (out [][]geom.Point) {
		for _, q := range queries {
			out = append(out, idx.KNN(q, 10, nil))
			box := geom.BoxOf(geom.Pt2(q[0]/2, q[1]/2), q)
			in := idx.RangeList(box, nil)
			slices.SortFunc(in, func(a, b geom.Point) int { return slices.Compare(a[:], b[:]) })
			out = append(out, in)
		}
		return out
	}
	pinned := c.cell.Acquire()
	before := answers(pinned.Index)

	committed := make(chan struct{})
	go func() {
		defer close(committed)
		for i := 0; i < n; i += 2 { // half the population moves
			c.Set(key(i), geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
		}
		c.Flush()
	}()
	waitFor(t, "the drain", func() bool { return c.Stats().RetireLag == 1 })
	during := answers(pinned.Index)
	select {
	case <-committed:
		t.Fatal("the commit finished while a reader still held the displaced copy")
	default:
	}
	c.cell.Release()
	<-committed

	for i := range before {
		if !slices.Equal(before[i], during[i]) {
			t.Fatalf("answer %d of the pinned reader changed under the commit", i)
		}
	}
	fresh := c.cell.Acquire()
	after := answers(fresh.Index)
	c.cell.Release()
	same := true
	for i := range before {
		same = same && slices.Equal(before[i], after[i])
	}
	if same {
		t.Fatal("a window that moved half the objects changed no answer of a new reader")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
