package collection

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/orthtree"
	"repro/internal/sfc"
	"repro/internal/spactree"
)

// The view protocol — readers never wait on the apply, never see a torn
// window, the displaced view is untouched until drained, the published
// view is the writer's contents — is tested here, once, against a cell
// over a fake index. The Collection's other tests check that its queries
// go through the cell and what its windows mean.

// pair is the fake index: a window adds its number of inserts to both
// halves, so a torn read shows up as x != y, and a Build sets both to its
// number of points. applies and builds count what reached it; the atomics
// let a test watch the writer. A pair is a core.Index and nothing more, so
// a cell over one alone reads under its lock; a versioned pair pins views.
type pair struct {
	core.Index // the queries, which no test here calls
	name       string
	*counts    // its own, or the ones it shares with views until its next write
	applies    atomic.Int64
	builds     atomic.Int64
	copies     atomic.Uint64
	gate       *applyGate // optional: blocks BatchDiff while armed
	log        *[]string  // optional: the steps that reached the pair, in order
	// views and free are what Unpin left for the next Pin and the next
	// write: views and counts no view holds.
	views []*view
	free  []*counts
}

// counts are the two halves, and how many of a pair and its views hold
// them: the writer alone reads and writes refs.
type counts struct{ x, y, refs int }

func (c *counts) xy() (x, y int) { return c.x, c.y }

// versioned is a pair that pins views (core.Versioned). With share set, a
// view shares the pair's counts, and the pair's next write copies them
// into counts of its own first — the copy-on-write of the real trees,
// whose writer never touches what a view reads. Without, Pin copies the
// counts into the view.
type versioned struct {
	*pair
	share bool
}

// view is a pinned view of a pair: read-only, and its counts are gone
// once it is unpinned.
type view struct {
	core.Index
	of      *pair
	*counts // the pair's, when shared, or own
	own     counts
	held    bool
}

func (v *view) Size() int { return v.x }

type applyGate struct{ armed, entered, release chan struct{} }

func newApplyGate() *applyGate {
	return &applyGate{make(chan struct{}), make(chan struct{}, 1), make(chan struct{})}
}

func (p *pair) Name() string { return p.name }
func (p *pair) Size() int    { return p.x }

func (p *pair) record(step string) {
	if p.log != nil {
		*p.log = append(*p.log, step+" "+p.name)
	}
}

// own gives p counts of its own before a write (see versioned).
func (p *pair) own() {
	if p.refs == 1 {
		return
	}
	p.refs--
	var c *counts
	if n := len(p.free); n > 0 {
		c, p.free = p.free[n-1], p.free[:n-1]
	} else {
		c = new(counts)
	}
	*c = counts{p.x, p.y, 1}
	p.counts = c
	p.copies.Add(1)
}

func (p *pair) Build(pts []geom.Point) {
	p.record("build")
	p.own()
	p.x = len(pts)
	p.builds.Add(1)
	p.y = len(pts)
}

func (p *pair) BatchDiff(ins, del []geom.Point) {
	p.record("apply")
	w := len(ins)
	if g := p.gate; g != nil {
		select {
		case <-g.armed:
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-g.release
		default:
		}
	}
	p.own()
	p.x += w
	p.applies.Add(1)
	p.y += w
}

// Pin, Unpin, Current and Copied make a versioned pair a core.Versioned.
func (p versioned) Pin() core.Index {
	p.record("pin")
	var v *view
	if n := len(p.views); n > 0 {
		v, p.views = p.views[n-1], p.views[:n-1]
	} else {
		v = &view{of: p.pair}
	}
	v.held = true
	if p.share {
		v.counts = p.counts
		p.refs++
	} else {
		v.own = counts{p.x, p.y, 1}
		v.counts = &v.own
	}
	return v
}

func (p versioned) Unpin(idx core.Index) {
	v, ok := idx.(*view)
	if !ok || v.of != p.pair || !v.held {
		panic("collection test: Unpin of a view that is not pinned from this pair")
	}
	p.record("unpin")
	if p.share {
		if v.refs--; v.refs == 0 {
			p.free = append(p.free, v.counts)
		}
	}
	v.counts, v.held = nil, false
	p.views = append(p.views, v)
}

func (p versioned) Current(idx core.Index) bool {
	v, ok := idx.(*view)
	return ok && v.of == p.pair && v.held && v.x == p.x && v.y == p.y
}

func (p versioned) Copied() (nodes, bytes uint64) { return p.copies.Load(), 0 }

// newCell builds a cell over p: read under its lock unless pin is set,
// over views of p otherwise — views that share its counts when share is
// set.
func newCell(p *pair, pin, share bool) *cell {
	p.counts = &counts{refs: 1}
	var idx core.Index = p
	if pin {
		idx = versioned{p, share}
	}
	c := new(cell)
	c.Init(idx)
	return c
}

// modes runs f over a locked cell and two cells over views: views that
// copy the writer's counts ("twin"), and views that share them until the
// writer's next write ("adopting").
func modes(t *testing.T, f func(t *testing.T, c *cell, pinned bool)) {
	t.Run("locked", func(t *testing.T) { f(t, newCell(&pair{}, false, false), false) })
	t.Run("twin", func(t *testing.T) { f(t, newCell(&pair{}, true, false), true) })
	t.Run("adopting", func(t *testing.T) { f(t, newCell(&pair{}, true, true), true) })
}

// points is what the windows of these tests are cut from: commit(c, w)
// commits a window of w inserts, with a table step that does nothing.
var points = make([]geom.Point, 100)

func noStep() {}

func commit(c *cell, w int) { c.Commit(points[:w], nil, noStep, nil, time.Time{}) }

func read(c *cell) (x, y int, epoch uint64) {
	v := c.Acquire()
	defer c.Release()
	x, y = v.Index.(interface{ xy() (int, int) }).xy()
	return x, y, v.Epoch()
}

func TestSnapshotCommitAndCounters(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		wantVersions, perCommit := 1, uint64(0)
		if pinned {
			wantVersions, perCommit = 2, 1
		}
		if c.Versions() != wantVersions || c.Epoch() != 0 || c.RetireLag() != 0 {
			t.Fatalf("fresh cell: versions %d epoch %d lag %d", c.Versions(), c.Epoch(), c.RetireLag())
		}
		sum := 0
		for w := 1; w <= 5; w++ {
			commit(c, w)
			sum += w
			x, y, ep := read(c)
			if x != sum || y != sum {
				t.Fatalf("after window %d: read (%d, %d), want %d", w, x, y, sum)
			}
			if want := uint64(w) * perCommit; ep != want || c.Epoch() != want || c.RetireLag() != 0 {
				t.Fatalf("after window %d: version epoch %d, cell epoch %d, lag %d, want %d/%d/0",
					w, ep, c.Epoch(), c.RetireLag(), want, want)
			}
		}
	})
}

// TestSnapshotReadDuringCommitDoesNotStall holds a commit open inside
// the apply to the writer and requires reads to complete against the
// still-published view. (Over one copy the same probe would block —
// readers wait out the writer — which is the mode's documented cost.)
func TestSnapshotReadDuringCommitDoesNotStall(t *testing.T) {
	g := newApplyGate()
	c := newCell(&pair{gate: g}, true, true)
	commit(c, 1)
	commit(c, 1)
	close(g.armed)
	committed := make(chan struct{})
	go func() { commit(c, 1); close(committed) }()
	<-g.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if x, y, ep := read(c); x != 2 || y != 2 || ep != 2 {
			t.Errorf("read during the commit = (%d, %d) at epoch %d, want (2, 2) at 2", x, y, ep)
		}
		if c.Epoch() != 2 {
			t.Errorf("Epoch during the commit = %d, want 2", c.Epoch())
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reads stalled behind the held-open commit")
	}
	close(g.release)
	<-committed
	if x, _, ep := read(c); x != 3 || ep != 3 {
		t.Fatalf("after release: read %d at epoch %d, want 3 at 3", x, ep)
	}
}

// TestCellNeverTorn is the left-right discipline check, run under -race
// in CI: commits mutate a matched pair while readers continuously check
// it. A missing drain, a broken pin or a catch-up on a copy that still has
// readers shows up as a mismatch and as a data race.
func TestCellNeverTorn(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := 0
				for !stop.Load() {
					x, y, _ := read(c)
					if x != y || x < last {
						stop.Store(true)
						t.Errorf("torn or stale read: x=%d y=%d after %d", x, y, last)
					}
					last = x
					// Yield: a reader that spins through its whole time
					// slice starves a preempted pin-holder, and every
					// drain then waits out a scheduler quantum.
					runtime.Gosched()
				}
			}()
		}
		for i := 0; i < 2000 && !stop.Load(); i++ {
			commit(c, 1)
		}
		stop.Store(true)
		wg.Wait()
		if c.RetireLag() != 0 {
			t.Fatalf("quiescent lag %d, want 0", c.RetireLag())
		}
	})
	// The same discipline over views of a real copy-on-write tree: readers
	// of a P-Orth version count its points from the root and from the
	// leaves while commits insert and move points, so a root that is not
	// the one of its subtrees shows up as a mismatch, and a write to a node
	// a pinned version reaches as a data race.
	t.Run("P-Orth", func(t *testing.T) {
		universe := geom.UniverseBox(2, 1<<20)
		var c cell
		c.Init(orthtree.NewDefault(2, universe))
		at := func(i int) geom.Point { return geom.Pt2(int64(i)*523%(1<<20), int64(i)*131%(1<<20)) }
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []geom.Point
				for !stop.Load() {
					v := c.Acquire()
					n := v.Index.Size()
					buf = v.Index.RangeList(universe, buf[:0])
					c.Release()
					if n != len(buf) {
						stop.Store(true)
						t.Errorf("torn read: root holds %d points, leaves %d", n, len(buf))
					}
					runtime.Gosched()
				}
			}()
		}
		for i := 0; i < 2000 && !stop.Load(); i++ {
			var del []geom.Point
			if i >= 1000 {
				del = []geom.Point{at(i - 1000)}
			}
			c.Commit([]geom.Point{at(i)}, del, noStep, nil, time.Time{})
		}
		stop.Store(true)
		wg.Wait()
		if c.Versions() != 2 || c.Validate() != nil {
			t.Fatalf("%d versions, Validate %v: want the writer and its published view", c.Versions(), c.Validate())
		}
	})
}

// waitDrain waits until a commit waits for the write lock: RetireLag is 1
// and a read would block.
func waitDrain(t *testing.T, c *cell) {
	t.Helper()
	waitFor(t, "the drain", func() bool {
		if c.RetireLag() != 1 {
			return false
		}
		if c.mu.TryRLock() {
			c.mu.RUnlock()
			return false
		}
		return true
	})
}

// lateRead starts a read, which a draining commit holds up, and waits
// until it has been counted as waiting; the channel yields what it read.
func lateRead(t *testing.T, c *cell) <-chan [2]int {
	t.Helper()
	n, _ := c.Waits()
	got := make(chan [2]int, 1)
	go func() {
		x, y, _ := read(c)
		got <- [2]int{x, y}
	}()
	waitFor(t, "the waiting read", func() bool { m, _ := c.Waits(); return m == n+1 })
	return got
}

// TestSnapshotDisplacedCopyUntouchedUntilDrained holds a reader, commits,
// and watches the held view: the commit must apply the window to the
// writer and pin a view of it, then wait for the reader — RetireLag 1 —
// neither touching the held view nor publishing, unpinning or returning
// meanwhile. A read that arrives during the wait blocks, is counted, and
// gets the window once the held reader lets go; then the held view is
// unpinned.
func TestSnapshotDisplacedCopyUntouchedUntilDrained(t *testing.T) {
	var log []string
	w := &pair{name: "w", log: &log}
	c := newCell(w, true, true)
	held := c.Acquire()
	committed := make(chan struct{})
	go func() { commit(c, 7); close(committed) }()
	waitDrain(t, c)
	if w.applies.Load() != 1 || c.Epoch() != 0 {
		t.Fatalf("draining commit: the writer applied %d windows at epoch %d, want 1 window, unpublished", w.applies.Load(), c.Epoch())
	}
	late := lateRead(t, c)
	time.Sleep(2 * time.Millisecond) // room for a buggy unpin to run
	if x, y := held.Index.(*view).xy(); x != 0 || y != 0 || c.RetireLag() != 1 {
		t.Fatalf("held view reads (%d, %d), lag %d: want untouched and lag 1", x, y, c.RetireLag())
	}
	if want := []string{"pin w", "apply w", "pin w"}; !slices.Equal(log, want) {
		t.Fatalf("steps %q before the drain ended, want %q", log, want)
	}
	select {
	case <-committed:
		t.Fatal("Commit returned while a reader still held the displaced view")
	case <-late:
		t.Fatal("a read went past the draining commit")
	default:
	}
	c.Release()
	if got := <-late; got != [2]int{7, 7} {
		t.Fatalf("read that waited out the drain got %v, want the window applied", got)
	}
	<-committed
	if w.x != 7 || c.RetireLag() != 0 || c.Epoch() != 1 || log[len(log)-1] != "unpin w" || held.Index != nil {
		t.Fatalf("after the drain: writer holds %d, lag %d, epoch %d, last step %q; want 7, 0, 1 and the held view unpinned",
			w.x, c.RetireLag(), c.Epoch(), log[len(log)-1])
	}
	if n, ns := c.Waits(); n != 1 || ns == 0 {
		t.Fatalf("Waits = %d reads, %d ns; want the one read and its time", n, ns)
	}
}

// writer returns the pair a cell of these tests applies its windows to.
func writer(c *cell) *pair {
	if v, ok := c.idx.(versioned); ok {
		return v.pair
	}
	return c.idx.(*pair)
}

func TestSnapshotRebuildResetsEveryCopy(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		commit(c, 3)
		before := c.Epoch()
		c.Rebuild(points[:100], noStep)
		if builds := writer(c).builds.Load(); builds != 1 {
			t.Fatalf("Rebuild ran Build %d times", builds)
		}
		if pinned && c.Epoch() != before+1 {
			t.Fatalf("Rebuild published epoch %d, want %d", c.Epoch(), before+1)
		}
		// The commits after it start from the rebuilt contents.
		for i := 1; i <= 4; i++ {
			commit(c, 1)
			if x, y, _ := read(c); x != 100+i || y != 100+i {
				t.Fatalf("commit %d after Rebuild: read (%d, %d), want %d", i, x, y, 100+i)
			}
		}
	})
}

// TestSnapshotSpanStages pins which flush-span stages each mode stamps
// and that the span carries the published epoch.
func TestSnapshotSpanStages(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		var sp obs.FlushSpan
		c.Commit(points[:5], nil, noStep, &sp, time.Now())
		stamped := func(stage int) bool { return sp.Stages[stage] > 0 }
		if !stamped(obs.StageApply) || stamped(obs.StagePublish) != pinned || stamped(obs.StageReplay) != pinned {
			t.Fatalf("stages %v", sp.Stages)
		}
		if want := c.Epoch(); sp.Epoch != want {
			t.Fatalf("span epoch %d, want %d", sp.Epoch, want)
		}
	})
}

// TestSnapshotConcurrentCommitsSerialize: the cell serializes committers
// itself — many goroutines commit to one cell with no outer lock, readers
// alongside.
func TestSnapshotConcurrentCommitsSerialize(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					commit(c, 1)
					if x, y, _ := read(c); x != y {
						t.Errorf("torn read (%d, %d)", x, y)
						return
					}
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 2; i++ {
			commit(c, 0)
			if x, y, _ := read(c); x != 1600 || y != 1600 {
				t.Fatalf("after %d further commits: read (%d, %d), want 1600", i+1, x, y)
			}
		}
	})
}

// TestSnapshotCommitZeroAlloc pins the protocol itself at zero
// allocations: the Versions are permanent, a commit and a read allocate
// nothing in either mode.
func TestSnapshotCommitZeroAlloc(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, pinned bool) {
		var sp obs.FlushSpan
		if allocs := testing.AllocsPerRun(100, func() {
			c.Commit(points[:1], nil, noStep, &sp, time.Time{})
			read(c)
		}); allocs != 0 {
			t.Fatalf("commit+read allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestCellQueryZeroAllocWarm pins a read through the cell over a real
// index at zero steady-state allocations with reused result buffers, in
// every mode: read-locked, and on pinned views — SPaC-H, whose KNN search
// state comes from pools, and P-Orth.
func TestCellQueryZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const side = 1 << 20
	universe := geom.UniverseBox(2, side)
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*500%side, int64(i)*311%side)
	}
	for _, mode := range []struct {
		name string
		idx  core.Index
	}{
		{"locked", core.NewBruteForce(2)},
		{"views", spactree.NewSPaC(sfc.Hilbert, 2, universe)},
		{"P-Orth views", orthtree.NewDefault(2, universe)},
	} {
		var c cell
		c.Init(mode.idx)
		if (c.Versions() == 2) != (mode.name != "locked") {
			t.Fatalf("%s: %d versions", mode.name, c.Versions())
		}
		c.Rebuild(pts, noStep)
		c.Commit(pts[:1], pts[1:2], noStep, nil, time.Time{})
		q := geom.Pt2(side/2, side/2)
		box := geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4))
		var dst []geom.Point
		warm := func() {
			v := c.Acquire()
			dst = v.Index.KNN(q, 10, dst[:0])
			v.Index.RangeCount(box)
			dst = v.Index.RangeList(box, dst[:0])
			c.Release()
		}
		warm()
		if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
			t.Errorf("%s: a warm read through the cell allocates %.2f/op, want 0", mode.name, allocs)
		}
	}
}

// TestTwinCommitZeroAllocWarm pins a warm commit over pinned views of a
// real tree at zero allocations: each window copies the shared paths it
// touches into the nodes and blocks the window before it displaced, which
// came back when the displaced view was unpinned. Windows of 256 moves
// alternate over two point sets, so every commit copies and reclaims.
func TestTwinCommitZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const side, n, moves = 1 << 20, 20000, 256
	universe := geom.UniverseBox(2, side)
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, n)
	alt := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
		alt[i] = geom.Pt2(rng.Int63n(side), rng.Int63n(side))
	}
	for _, idx := range []core.Index{spactree.NewSPaC(sfc.Hilbert, 2, universe), orthtree.NewDefault(2, universe)} {
		var c cell
		c.Init(idx)
		c.Rebuild(pts, noStep)
		w := 0
		window := func() {
			lo := w % (n / moves) * moves
			from, to := pts, alt
			if w/(n/moves)%2 == 1 {
				from, to = alt, pts
			}
			c.Commit(to[lo:lo+moves], from[lo:lo+moves], noStep, nil, time.Time{})
			w++
		}
		for range 2 * n / moves {
			window()
		}
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Errorf("%s: a warm commit of %d moves over pinned views allocates %.2f/op, want 0", idx.Name(), moves, allocs)
		}
	}
}

// TestCellRequiresEmptyIndexes documents the construction contract: Init
// refuses an index that starts non-empty, versioned or not, and names the
// package in the panic. An empty index that does not pin stays on one
// copy.
func TestCellRequiresEmptyIndexes(t *testing.T) {
	full := func() *pair {
		p := &pair{counts: &counts{x: 1, refs: 1}}
		return p
	}
	for _, tc := range []struct {
		name string
		idx  core.Index
	}{
		{"non-empty index", versioned{pair: full()}},
		{"non-empty locked index", full()},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "collection: ") {
					t.Fatalf("%s: panic %q, want one that names the package", tc.name, msg)
				}
			}()
			new(cell).Init(tc.idx)
		}()
	}
	var c cell
	c.Init(core.NewBruteForce(2))
	if c.Versions() != 1 {
		t.Fatalf("an index that cannot pin: %d versions, want 1", c.Versions())
	}
}

// TestStepOrder states the contract the Collection's table step relies
// on, with a reader held across the commit. Over one copy: drain, then
// apply and the table step under the write lock. Over views: apply to the
// writer, pin a view of it, drain, the table step and the publish under
// the write lock, then unpin the displaced view. Either way the table step
// runs under the write lock, before the publish, and never while a reader
// still holds the displaced view; and a read that arrived during the drain
// gets the published window.
func TestStepOrder(t *testing.T) {
	for _, mode := range []struct {
		name   string
		pinned bool
	}{
		{name: "locked"},
		{name: "adopting twin", pinned: true},
	} {
		for _, op := range []struct {
			name, step string
			run        func(c *cell, tableStep func())
		}{
			{"Commit", "apply", func(c *cell, tableStep func()) {
				c.Commit(points[:3], nil, tableStep, nil, time.Time{})
			}},
			{"Rebuild", "build", func(c *cell, tableStep func()) { c.Rebuild(points[:3], tableStep) }},
		} {
			t.Run(mode.name+"/"+op.name, func(t *testing.T) {
				var log []string
				var c *cell
				tableStep := func() {
					log = append(log, "table")
					if c.mu.TryRLock() {
						c.mu.RUnlock()
						t.Error("the table step ran outside the write lock")
					}
					if c.Epoch() != 0 {
						t.Error("the table step ran after the publish")
					}
				}
				c = newCell(&pair{name: "a", log: &log}, mode.pinned, true)
				log = nil   // a versioned pair pins once at Init
				c.Acquire() // the view a commit over views displaces
				done := make(chan struct{})
				go func() { op.run(c, tableStep); close(done) }()
				waitDrain(t, c)
				if c.Epoch() != 0 {
					t.Fatal("the commit published before its drain")
				}
				late := lateRead(t, c)
				time.Sleep(2 * time.Millisecond) // room for a step that does not wait for the drain
				log = append(log, "drain")       // ordered before the writer's next step by the Release
				c.Release()
				<-done
				want := []string{"drain", op.step + " a", "table"}
				if mode.pinned {
					want = []string{op.step + " a", "pin a", "drain", "table", "unpin a"}
				}
				if !slices.Equal(log, want) {
					t.Fatalf("steps %q, want %q", log, want)
				}
				if got := <-late; got != [2]int{3, 3} {
					t.Fatalf("read that waited out the drain got %v, want the window", got)
				}
			})
		}
	}
}
