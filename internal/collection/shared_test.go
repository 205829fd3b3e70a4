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
// two handles on one tree, beside the one slot table. These tests pin what
// that is for (memory), what it must not change (a pinned reader's answers)
// and how it can be observed (Shares, the copy counts in Stats), over the
// serving stack, Sharded(SPaC-H), and over Sharded(P-Orth).
var sharedStacks = []string{"Sharded(SPaC-H)", "Sharded(P-Orth)"}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// churned loads n objects into a Collection over mk's index, in either read
// mode, moves a random 4096 of them in each of 20 windows, and returns the
// Collection with the heap it holds, in bytes per object.
func churned(t *testing.T, mk func() core.Index, n int, snapshot bool) (*Collection[int], float64) {
	t.Helper()
	before := heapAfterGC()
	rng := rand.New(rand.NewSource(41))
	c := New[int](mk(), Options{MaxBatch: 4096, Snapshot: snapshot})
	for i := 0; i < n; i++ {
		c.Set(i, geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
	}
	c.Flush()
	for w := 0; w < 20; w++ {
		for i := 0; i < 4096; i++ {
			c.Set(rng.Intn(n), geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
		}
		c.Flush()
	}
	if got := c.Len(); got != n {
		t.Fatalf("%d objects after the churn, want %d", got, n)
	}
	return c, float64(heapAfterGC()-before) / float64(n)
}

// TestSharedIndexBytesPerObject is the memory guard of snapshot reads over
// both sharded copy-on-write stacks: after a load and twenty 4096-move
// windows a stack holds at most 30 B per object more than the same stack
// built with locked reads — room for the second handle's first-touch
// copies, not for a second slot table (57–76 B per object) and far from a
// second tree.
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
		snap.Close()
		snap = nil
		locked, lockedB := churned(t, mk, n, false)
		locked.Close()
		t.Logf("%s: %.0f B per object under snapshot reads, %.0f B under locked reads", name, snapB, lockedB)
		if snapB > lockedB+30 {
			t.Fatalf("%s: snapshot reads cost %.0f B per object over locked reads' %.0f B, want at most 30 more", name, snapB-lockedB, lockedB)
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
			if of.Field(i).Type == reflect.TypeFor[table[int]]() {
				n++
			}
		}
		return n
	}
	if got := tables(reflect.TypeFor[Collection[int]]()); got != 1 {
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
		"snapshot over a baseline":  {innerStacks()["BruteForce"], true, 1},
	} {
		c := New[int](tc.mk(), Options{MaxBatch: 1 << 20, Snapshot: tc.snapshot})
		oracle := make(map[int]geom.Point)
		set := func(id int, p geom.Point) {
			c.Set(id, p)
			oracle[id] = p
		}
		headAt := func(p geom.Point) (id int) {
			c.withTable(func(tab *table[int]) { id = tab.name[tab.head(p)] })
			return id
		}
		for w := 0; w < 3; w++ { // each copy is written first at least once
			for i := 0; i < n; i++ {
				set(w*n+i, geom.Pt2(int64(i)*50+7, int64(w)))
			}
			c.Flush()
			c.withTable(func(tab *table[int]) {
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
		if got := headAt(oracle[0]); got != 0 {
			t.Fatalf("%s: %d heads the chain of IDs 0 and 1 after a %d-op window over %d slots, want 0: the window was not relinked", name, got, n, 3*n)
		}
		// Two ops the same way: op by op, so the first one moved heads it.
		set(2*n+1, geom.Pt2(3, 9))
		set(2*n, geom.Pt2(3, 9))
		c.Flush()
		if got := headAt(oracle[2*n]); got != 2*n+1 {
			t.Fatalf("%s: %d heads the chain of IDs %d and %d after a 2-op window, want %d", name, got, 2*n, 2*n+1, 2*n+1)
		}
		verifyAgainstOracle(t, c, oracle, 3*n)
		if st := c.Stats(); st.Versions != tc.versions {
			t.Fatalf("%s: Stats.Versions = %d, want %d", name, st.Versions, tc.versions)
		}
		c.Close()
	}
}

// TestSharedIndexStaysOneTree: between commits the two copies of a shared
// index are one structure — Shares, which for the trees is pointer
// equality of every shard's root — and answer alike; a window copies the
// paths it touches and no more; Load builds once and leaves them sharing
// again.
func TestSharedIndexStaysOneTree(t *testing.T) {
	for _, name := range sharedStacks {
		t.Run(name, func(t *testing.T) { sharedIndexStaysOneTree(t, innerStacks()[name]) })
	}
}

func sharedIndexStaysOneTree(t *testing.T, mk func() core.Index) {
	const n = 40_000
	rng := rand.New(rand.NewSource(43))
	idx := mk()
	c := New[int](idx, Options{MaxBatch: 1 << 20, Snapshot: true})
	defer c.Close()
	pos := make(map[int]geom.Point, n)
	for i := 0; i < n; i++ {
		pos[i] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
		c.Set(i, pos[i])
	}
	c.Flush()
	// The first commit publishes the replica the cell made of idx.
	v := c.cell.Acquire()
	inner := []core.Index{idx, v.Index}
	c.cell.Release(v)
	a, b := inner[0].(core.Adopter), inner[1].(core.Adopter)
	check := func(when string) {
		t.Helper()
		if !a.Shares(inner[1]) || !b.Shares(inner[0]) {
			t.Fatalf("%s: the two index copies are not one structure", when)
		}
		q := geom.Pt2(rng.Int63n(side), rng.Int63n(side))
		box := geom.BoxOf(geom.Pt2(q[0]/2, q[1]/2), q)
		if !slices.Equal(inner[0].KNN(q, 8, nil), inner[1].KNN(q, 8, nil)) ||
			inner[0].RangeCount(box) != inner[1].RangeCount(box) {
			t.Fatalf("%s: the two index copies answer differently", when)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after the load")

	nodesBefore := c.Stats().CowNodes
	const windows, moves = 10, 100
	for w := 0; w < windows; w++ {
		for i := 0; i < moves; i++ {
			id := rng.Intn(n)
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
	if perWindow == 0 || perWindow > 40*moves || st.CowBytes == 0 || !st.SharedIndex {
		t.Fatalf("a %d-move window copied %.0f nodes (%d bytes in all): want some, far fewer than the tree's %d",
			moves, perWindow, st.CowBytes, 2*n/40)
	}

	c.Load(len(pos), func(yield func(int, geom.Point) bool) {
		for id, p := range pos {
			if !yield(id, p) {
				return
			}
		}
	})
	check("after Load")
}

// TestPinnedReaderKeepsItsAnswersAcrossACommit: a reader that pinned the
// published triple before a window commits reads, from the tree the window
// is being applied beside, exactly what it read before — while a new
// reader already sees the window. The commit cannot finish until the pin
// is released; then both copies hold the window.
func TestPinnedReaderKeepsItsAnswersAcrossACommit(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(47))
	c := New[int](innerStacks()["Sharded(SPaC-H)"](), Options{MaxBatch: 1 << 20, Snapshot: true})
	defer c.Close()
	for i := 0; i < n; i++ {
		c.Set(i, geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
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
			c.Set(i, geom.Pt2(rng.Int63n(side), rng.Int63n(side)))
		}
		c.Flush()
	}()
	for c.Epoch() == pinned.Epoch() { // wait for the publish
		time.Sleep(100 * time.Microsecond)
	}
	during := answers(pinned.Index)
	select {
	case <-committed:
		t.Fatal("the commit finished while a reader still held the displaced copy")
	default:
	}
	c.cell.Release(pinned)
	<-committed

	for i := range before {
		if !slices.Equal(before[i], during[i]) {
			t.Fatalf("answer %d of the pinned reader changed under the commit", i)
		}
	}
	fresh := c.cell.Acquire()
	after := answers(fresh.Index)
	c.cell.Release(fresh)
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
