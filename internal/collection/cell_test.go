package collection

import (
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

// The twin protocol — readers never wait on the apply, never see a torn
// window, the displaced copy is untouched until drained, both copies
// converge — is tested here, once, against a cell over a fake index. The
// Collection's other tests check that its queries go through the cell and
// what its windows mean.

// pair is the fake index: a window adds its number of inserts to both
// halves, so a torn read shows up as x != y, and a Build sets both to its
// number of points. applies and builds count what reached this copy; the
// atomics let a test watch a copy the writer owns. A pair is a core.Index
// and nothing more, so a cell over one alone reads under its lock; twins
// are pairs wrapped as twinPairs.
type pair struct {
	core.Index // the queries, which no test here calls
	name       string
	*counts    // mine, or after a sharing Adopt the source's
	mine       counts
	replica    *pair // what NewReplica hands out
	applies    atomic.Int64
	builds     atomic.Int64
	copies     atomic.Uint64
	gate       *applyGate // optional: blocks BatchDiff on this copy while armed
	log        *[]string  // optional: the steps that reached this copy, in order
}

type counts struct{ x, y int }

// twinPair is a pair whose twins adopt. With share set, Adopt makes the
// adopter a second handle on the source's counts, and its next write
// copies them into its own first — the copy-on-write of the real trees,
// whose writer never touches what the published handle reads. Without,
// Adopt copies the published counts into the adopter's own.
type twinPair struct {
	*pair
	share bool
}

type applyGate struct{ armed, entered, release chan struct{} }

func newApplyGate() *applyGate {
	return &applyGate{make(chan struct{}), make(chan struct{}, 1), make(chan struct{})}
}

func (p *pair) state() *pair { return p }
func (p *pair) Name() string { return p.name }
func (p *pair) Size() int    { return p.x }

func (p *pair) record(step string) {
	if p.log != nil {
		*p.log = append(*p.log, step+" "+p.name)
	}
}

// own points p at counts of its own before a write (see twinPair).
func (p *pair) own() {
	if p.counts != &p.mine {
		p.mine = *p.counts
		p.counts = &p.mine
		p.copies.Add(1)
	}
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

// NewReplica, Adopt, Shares and Copied make a twinPair a core.Adopter.
// Adopt only reads src, which has readers.
func (p twinPair) NewReplica() core.Index {
	if p.replica == nil {
		return nil
	}
	return twinPair{p.replica, p.share}
}

func (p twinPair) Adopt(src core.Index) bool {
	s, ok := src.(twinPair)
	if ok {
		p.record("adopt")
		if p.share {
			p.counts = s.counts
		} else {
			p.mine = *s.counts
		}
	}
	return ok
}

func (p twinPair) Shares(o core.Index) bool {
	q := o.(twinPair)
	return q.counts == p.counts || !p.share && *q.counts == *p.counts
}

func (p twinPair) Copied() (nodes, bytes uint64) { return p.copies.Load(), 0 }

// newCell builds a cell over the given copies, asking for snapshot reads
// either way: one pair stays locked, two are twins that adopt — sharing
// their counts when share is set.
func newCell(share bool, copies ...*pair) *cell {
	for i, p := range copies {
		p.counts = &p.mine
		if i > 0 {
			copies[i-1].replica = p
		}
	}
	var idx core.Index = copies[0]
	if len(copies) == 2 {
		idx = twinPair{copies[0], share}
	}
	c := new(cell)
	c.Init(idx, true)
	return c
}

// modes runs f over a one-copy (locked) cell and two two-copy cells: the
// twin whose displaced copy adopts by copying the published counts, and
// the one whose displaced copy shares them until its next write.
func modes(t *testing.T, f func(t *testing.T, c *cell, twin bool)) {
	t.Run("locked", func(t *testing.T) { f(t, newCell(false, &pair{}), false) })
	t.Run("twin", func(t *testing.T) { f(t, newCell(false, &pair{}, &pair{}), true) })
	t.Run("adopting", func(t *testing.T) { f(t, newCell(true, &pair{}, &pair{}), true) })
}

// points is what the windows of these tests are cut from: commit(c, w)
// commits a window of w inserts, with a table step that does nothing.
var points = make([]geom.Point, 100)

func noStep() {}

func commit(c *cell, w int) { c.Commit(points[:w], nil, noStep, nil, time.Time{}) }

func read(c *cell) (x, y int, epoch uint64) {
	v := c.Acquire()
	defer c.Release()
	p := v.Index.(interface{ state() *pair }).state()
	return p.x, p.y, v.Epoch()
}

func TestSnapshotCommitAndCounters(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, twin bool) {
		wantVersions, perCommit := 1, uint64(0)
		if twin {
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
// the apply of the off-line copy and requires reads to complete against
// the still-published state. (Over one copy the same probe would block —
// readers wait out the writer — which is the mode's documented cost.)
func TestSnapshotReadDuringCommitDoesNotStall(t *testing.T) {
	g := newApplyGate()
	a, b := &pair{}, &pair{gate: g}
	c := newCell(false, a, b)
	commit(c, 1) // b published, a caught up and standing by
	commit(c, 1) // a published; the next commit writes b first
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
	modes(t, func(t *testing.T, c *cell, twin bool) {
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
	// The same discipline over twins of a real copy-on-write tree: readers
	// of a P-Orth version count its points from the root and from the
	// leaves while commits insert and move points, so a root that is not
	// the one of its subtrees shows up as a mismatch, and a write to a node
	// a pinned version reaches as a data race.
	t.Run("P-Orth", func(t *testing.T) {
		universe := geom.UniverseBox(2, 1<<20)
		var c cell
		c.Init(orthtree.NewDefault(2, universe), true)
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
			t.Fatalf("%d versions, Validate %v: want twins that still share", c.Versions(), c.Validate())
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
// and watches the held copy: the commit must apply the window to the other
// copy and then wait for the reader — RetireLag 1 — neither touching the
// held copy nor publishing nor returning meanwhile. A read that arrives
// during the wait blocks, is counted, and gets the window once the held
// reader lets go; then both copies hold the window.
func TestSnapshotDisplacedCopyUntouchedUntilDrained(t *testing.T) {
	a, b := &pair{}, &pair{}
	c := newCell(false, a, b)
	if held := c.Acquire(); held.Index.(twinPair).pair != a {
		t.Fatal("the first copy is not the initially published one")
	}
	committed := make(chan struct{})
	go func() { commit(c, 7); close(committed) }()
	waitDrain(t, c)
	if b.applies.Load() != 1 || c.Epoch() != 0 {
		t.Fatalf("draining commit: the off-line copy applied %d windows at epoch %d, want 1 window, unpublished", b.applies.Load(), c.Epoch())
	}
	late := lateRead(t, c)
	time.Sleep(2 * time.Millisecond) // room for a buggy catch-up to run
	if a.applies.Load() != 0 || c.RetireLag() != 1 {
		t.Fatalf("held copy applied %d windows, lag %d: want untouched and lag 1", a.applies.Load(), c.RetireLag())
	}
	select {
	case <-committed:
		t.Fatal("Commit returned while a reader still held the displaced copy")
	case <-late:
		t.Fatal("a read went past the draining commit")
	default:
	}
	c.Release()
	if got := <-late; got != [2]int{7, 7} {
		t.Fatalf("read that waited out the drain got %v, want the window applied", got)
	}
	<-committed
	if a.x != 7 || b.x != 7 || c.RetireLag() != 0 || c.Epoch() != 1 {
		t.Fatalf("after the drain: copies hold %d and %d, lag %d, epoch %d; want 7, 7, 0, 1", a.x, b.x, c.RetireLag(), c.Epoch())
	}
	if n, ns := c.Waits(); n != 1 || ns == 0 {
		t.Fatalf("Waits = %d reads, %d ns; want the one read and its time", n, ns)
	}
}

func TestSnapshotRebuildResetsEveryCopy(t *testing.T) {
	modes(t, func(t *testing.T, c *cell, twin bool) {
		commit(c, 3)
		before := c.Epoch()
		c.Rebuild(points[:100], noStep)
		builds := 0
		for _, idx := range c.copies {
			builds += int(idx.(interface{ state() *pair }).state().builds.Load())
		}
		if builds != 1 {
			t.Fatalf("Rebuild ran Build %d times over %d copies", builds, c.Versions())
		}
		if twin && c.Epoch() != before+1 {
			t.Fatalf("Rebuild published epoch %d, want %d", c.Epoch(), before+1)
		}
		// Consecutive commits alternate which copy is read: both must
		// have restarted from the rebuilt contents.
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
	modes(t, func(t *testing.T, c *cell, twin bool) {
		var sp obs.FlushSpan
		c.Commit(points[:5], nil, noStep, &sp, time.Now())
		stamped := func(stage int) bool { return sp.Stages[stage] > 0 }
		if !stamped(obs.StageApply) || stamped(obs.StagePublish) != twin || stamped(obs.StageReplay) != twin {
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
	modes(t, func(t *testing.T, c *cell, twin bool) {
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
		// Consecutive commits alternate which copy is read: check both.
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
	modes(t, func(t *testing.T, c *cell, twin bool) {
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
// every mode: read-locked, and pinned on twins that adopt — SPaC-H, whose
// KNN search state comes from pools, and P-Orth.
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
		{"adopting", spactree.NewSPaC(sfc.Hilbert, 2, universe)},
		{"adopting P-Orth", orthtree.NewDefault(2, universe)},
	} {
		var c cell
		c.Init(mode.idx, true)
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

// TestCellRequiresEmptyIndexes documents the construction contract: with
// snapshot reads asked for, Init refuses twins that could never agree — an
// index that starts non-empty, or a replica that is non-empty or missing —
// and names the package in the panic. Locked reads take the index as it
// is, and so does a snapshot request over an index that is not
// copy-on-write: it stays on one copy.
func TestCellRequiresEmptyIndexes(t *testing.T) {
	twins := func(idxSize int, replica *pair) core.Index {
		p := &pair{replica: replica}
		p.counts = &p.mine
		p.x = idxSize
		if replica != nil {
			replica.counts = &replica.mine
		}
		return twinPair{pair: p}
	}
	for _, tc := range []struct {
		name string
		idx  core.Index
	}{
		{"non-empty index", twins(1, &pair{})},
		{"non-empty twin", twins(0, &pair{mine: counts{x: 1}})},
		{"no twin", twins(0, nil)},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "collection: ") {
					t.Fatalf("%s: panic %q, want one that names the package", tc.name, msg)
				}
			}()
			new(cell).Init(tc.idx, true)
		}()
	}
	var c cell
	c.Init(twins(1, &pair{}), false)
	if c.Versions() != 1 {
		t.Fatalf("locked reads over a non-empty index: %d versions, want 1", c.Versions())
	}
	var s cell
	s.Init(core.NewBruteForce(2), true)
	if s.Versions() != 1 {
		t.Fatalf("snapshot reads over an index that cannot adopt: %d versions, want 1", s.Versions())
	}
}

// TestStepOrder states the contract the Collection's table step relies
// on, with a reader held across the commit. Over one copy: drain, then
// apply and the table step under the write lock. Over twins: apply to the
// off-line copy, drain, the table step and the publish under the write
// lock, then the displaced copy adopts. Either way the table step runs
// under the write lock, before the publish, and never while a reader still
// holds the displaced copy; and a read that arrived during the drain gets
// the published window.
func TestStepOrder(t *testing.T) {
	for _, mode := range []struct {
		name string
		twin bool
	}{
		{name: "locked"},
		{name: "adopting twin", twin: true},
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
				copies := []*pair{{name: "a", log: &log}}
				if mode.twin {
					copies = append(copies, &pair{name: "b", log: &log})
				}
				c = newCell(true, copies...)
				log = nil   // an adopting pair adopts once at Init
				c.Acquire() // copy a, which a twin commit displaces
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
				if mode.twin {
					want = []string{op.step + " b", "drain", "table", "adopt a"}
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
