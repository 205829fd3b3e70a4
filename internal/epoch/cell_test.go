package epoch

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
	"repro/internal/sfc"
	"repro/internal/spactree"
)

// The twin protocol — readers never stall, never see a torn window, the
// displaced copy is untouched until drained, both copies converge — is
// tested here, once, against a Cell over a fake index. The Collection and
// Sharded test that their queries go through the cell and what their
// windows mean.

// pair is the fake index: a window adds its number of inserts to both
// halves, so a torn read shows up as x != y, and a Build sets both to its
// number of points. applies and builds count what reached this copy; the
// atomics let a test watch a copy the writer owns. It is a core.Index and
// nothing more, so twins of it are re-applied.
type pair struct {
	core.Index // the queries, which no test here calls
	name       string
	x, y       int
	applies    atomic.Int64
	builds     atomic.Int64
	gate       *gate     // optional: blocks BatchDiff on this copy while armed
	log        *[]string // optional: the steps that reached this copy, in order
}

// cowPair is a pair whose twins adopt: the catch-up takes the published
// contents instead of having the window applied again.
type cowPair struct{ *pair }

type gate struct{ armed, entered, release chan struct{} }

func newGate() *gate {
	return &gate{make(chan struct{}), make(chan struct{}, 1), make(chan struct{})}
}

func (p *pair) state() *pair { return p }
func (p *pair) Name() string { return p.name }
func (p *pair) Size() int    { return p.x }

func (p *pair) record(step string) {
	if p.log != nil {
		*p.log = append(*p.log, step+" "+p.name)
	}
}

func (p *pair) Build(pts []geom.Point) {
	p.record("build")
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
	p.x += w
	p.applies.Add(1)
	p.y += w
}

// Adopt only reads src, which has readers. Shares and Copied complete
// core.Adopter.
func (p cowPair) Adopt(src core.Index) bool {
	s, ok := src.(cowPair)
	if ok {
		p.record("adopt")
		p.x, p.y = s.x, s.y
	}
	return ok
}
func (p cowPair) Shares(o core.Index) bool      { return o.(cowPair).x == p.x }
func (p cowPair) Copied() (nodes, bytes uint64) { return 0, 0 }

// newCell builds a cell over the given copies (one: locked reads, two:
// twins), wrapped as cowPairs when adopting, with beside as its step.
func newCell(adopting bool, beside func(), copies ...*pair) *Cell {
	wrap := func(p *pair) core.Index {
		if adopting {
			return cowPair{p}
		}
		return p
	}
	var snapshot func() core.Index
	if len(copies) == 2 {
		snapshot = func() core.Index { return wrap(copies[1]) }
	}
	c := new(Cell)
	c.Init("test", wrap(copies[0]), snapshot, beside)
	return c
}

// modes runs f over a one-copy (locked) cell and two two-copy cells: the
// twin whose displaced copy has every window applied again, and the one
// whose displaced copy adopts the published contents.
func modes(t *testing.T, f func(t *testing.T, c *Cell, twin bool)) {
	t.Run("locked", func(t *testing.T) { f(t, newCell(false, nil, &pair{}), false) })
	t.Run("twin", func(t *testing.T) { f(t, newCell(false, nil, &pair{}, &pair{}), true) })
	t.Run("adopting", func(t *testing.T) { f(t, newCell(true, nil, &pair{}, &pair{}), true) })
}

// points is what the windows of these tests are cut from: commit(c, w)
// commits a window of w inserts.
var points = make([]geom.Point, 100)

func commit(c *Cell, w int) { c.Commit(points[:w], nil, nil, time.Time{}) }

func read(c *Cell) (x, y int, epoch uint64) {
	v := c.Acquire()
	defer c.Release(v)
	p := v.Index.(interface{ state() *pair }).state()
	return p.x, p.y, v.Epoch()
}

func TestSnapshotCommitAndCounters(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell, twin bool) {
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
	g := newGate()
	a, b := &pair{}, &pair{gate: g}
	c := newCell(false, nil, a, b)
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

// TestSnapshotNeverTorn is the left-right discipline check, run under
// -race in CI: commits mutate a matched pair while readers continuously
// check it. A missing drain, a broken pin or a catch-up on a copy that
// still has readers shows up as a mismatch and as a data race.
func TestSnapshotNeverTorn(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell, twin bool) {
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
}

// TestSnapshotDisplacedCopyUntouchedUntilDrained pins a reader, commits,
// and watches the pinned copy: the commit must publish the other copy
// (new readers see the window), report the undrained publish as lag, and
// neither touch the pinned copy nor return until the reader lets go —
// after which both copies hold the window.
func TestSnapshotDisplacedCopyUntouchedUntilDrained(t *testing.T) {
	a, b := &pair{}, &pair{}
	c := newCell(false, nil, a, b)
	pinned := c.Acquire()
	if pinned.Index != core.Index(a) {
		t.Fatal("the first copy is not the initially published one")
	}
	committed := make(chan struct{})
	go func() { commit(c, 7); close(committed) }()
	for c.Epoch() != 1 { // wait for the publish
		time.Sleep(50 * time.Microsecond)
	}
	if x, y, _ := read(c); x != 7 || y != 7 {
		t.Fatalf("new reader after the publish read (%d, %d), want the window applied", x, y)
	}
	time.Sleep(2 * time.Millisecond) // room for a buggy catch-up to run
	if a.applies.Load() != 0 || c.RetireLag() != 1 {
		t.Fatalf("pinned copy applied %d windows, lag %d: want untouched and lag 1", a.applies.Load(), c.RetireLag())
	}
	select {
	case <-committed:
		t.Fatal("Commit returned while a reader still held the displaced copy")
	default:
	}
	c.Release(pinned)
	<-committed
	if a.x != 7 || b.x != 7 || c.RetireLag() != 0 {
		t.Fatalf("after the drain: copies hold %d and %d, lag %d, want 7, 7, 0", a.x, b.x, c.RetireLag())
	}
}

func TestSnapshotRebuildResetsEveryCopy(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell, twin bool) {
		commit(c, 3)
		before := c.Epoch()
		c.Rebuild(points[:100])
		builds := 0
		for _, idx := range c.copies {
			builds += int(idx.(interface{ state() *pair }).state().builds.Load())
		}
		if want := c.Versions(); c.Shared() && builds != 1 || !c.Shared() && builds != want {
			t.Fatalf("Rebuild ran Build %d times over %d copies (adopting: %v)", builds, want, c.Shared())
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
	modes(t, func(t *testing.T, c *Cell, twin bool) {
		var sp obs.FlushSpan
		c.Commit(points[:5], nil, &sp, time.Now())
		stamped := func(stage int) bool { return sp.Stages[stage] > 0 }
		if !stamped(obs.StageApply) || stamped(obs.StagePublish) != twin || stamped(obs.StageReplay) != twin {
			t.Fatalf("stages %v", sp.Stages)
		}
		if want := c.Epoch(); sp.Epoch != want {
			t.Fatalf("span epoch %d, want %d", sp.Epoch, want)
		}
	})
}

// TestSnapshotConcurrentCommitsSerialize: the Cell serializes committers
// itself — many goroutines commit to one cell with no outer lock, readers
// alongside.
func TestSnapshotConcurrentCommitsSerialize(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell, twin bool) {
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
	modes(t, func(t *testing.T, c *Cell, twin bool) {
		var sp obs.FlushSpan
		if allocs := testing.AllocsPerRun(100, func() {
			c.Commit(points[:1], nil, &sp, time.Time{})
			read(c)
		}); allocs != 0 {
			t.Fatalf("commit+read allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestSnapshotQueryZeroAllocWarm pins a read through the cell over a real
// index at zero steady-state allocations with reused result buffers, in
// every mode: read-locked, pinned on re-applied twins and pinned on twins
// that adopt, the last over a SPaC-H tree whose KNN search state comes
// from pools.
func TestSnapshotQueryZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const side = 1 << 20
	universe := geom.UniverseBox(2, side)
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*500%side, int64(i)*311%side)
	}
	brute := func() core.Index { return core.NewBruteForce(2) }
	spach := func() core.Index { return spactree.NewSPaC(sfc.Hilbert, 2, universe) }
	for _, mode := range []struct {
		name     string
		idx      core.Index
		snapshot func() core.Index
	}{
		{"locked", brute(), nil},
		{"twin", brute(), brute},
		{"adopting", spach(), spach},
	} {
		var c Cell
		c.Init("test", mode.idx, mode.snapshot, nil)
		if c.Shared() != (mode.name == "adopting") {
			t.Fatalf("%s: Shared = %t", mode.name, c.Shared())
		}
		c.Rebuild(pts)
		c.Commit(pts[:1], pts[1:2], nil, time.Time{})
		q := geom.Pt2(side/2, side/2)
		box := geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4))
		var dst []geom.Point
		warm := func() {
			v := c.Acquire()
			dst = v.Index.KNN(q, 10, dst[:0])
			v.Index.RangeCount(box)
			dst = v.Index.RangeList(box, dst[:0])
			c.Release(v)
		}
		warm()
		if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
			t.Errorf("%s: a warm read through the cell allocates %.2f/op, want 0", mode.name, allocs)
		}
	}
}

// TestSnapshotRequiresEmptyIndexes documents the construction contract:
// Init refuses twins that could never agree — an index that starts
// non-empty, or a snapshot constructor that returns a non-empty index or
// none — and names the caller's layer in the panic. Locked reads take the
// index as it is.
func TestSnapshotRequiresEmptyIndexes(t *testing.T) {
	empty := func() core.Index { return core.NewBruteForce(2) }
	nonEmpty := func() core.Index {
		idx := core.NewBruteForce(2)
		idx.Build([]geom.Point{geom.Pt2(1, 1)})
		return idx
	}
	for _, tc := range []struct {
		name     string
		idx      core.Index
		snapshot func() core.Index
	}{
		{"non-empty index", nonEmpty(), empty},
		{"non-empty twin", empty(), nonEmpty},
		{"no twin", empty(), func() core.Index { return nil }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "layer: ") {
					t.Fatalf("%s: panic %q, want one that names the layer", tc.name, msg)
				}
			}()
			new(Cell).Init("layer", tc.idx, tc.snapshot, nil)
		}()
	}
	var c Cell
	c.Init("layer", nonEmpty(), nil, nil)
	if c.Versions() != 1 {
		t.Fatalf("locked reads over a non-empty index: %d versions, want 1", c.Versions())
	}
}

// TestStepOrder states the contract a layer's beside step relies on (the
// Collection's table step does). Over one copy: apply, then beside, both
// under the write lock. Over twins: apply to the off-line copy, publish,
// drain, beside, catch-up — beside never runs while a reader still pins
// the displaced copy, and runs before that copy is written.
func TestStepOrder(t *testing.T) {
	for _, mode := range []struct {
		name            string
		twin, adopting  bool
		catchUp, reload string
	}{
		{name: "locked"},
		{name: "re-apply twin", twin: true, catchUp: "apply a", reload: "build a"},
		{name: "adopting twin", twin: true, adopting: true, catchUp: "adopt a", reload: "adopt a"},
	} {
		for _, op := range []struct {
			name, step string
			run        func(c *Cell)
		}{
			{"Commit", "apply", func(c *Cell) { commit(c, 3) }},
			{"Rebuild", "build", func(c *Cell) { c.Rebuild(points[:3]) }},
		} {
			t.Run(mode.name+"/"+op.name, func(t *testing.T) {
				var log []string
				var c *Cell
				beside := func() {
					log = append(log, "beside")
					if !mode.twin && c.mu.TryRLock() {
						t.Error("beside ran outside the write lock")
					}
				}
				copies := []*pair{{name: "a", log: &log}}
				if mode.twin {
					copies = append(copies, &pair{name: "b", log: &log})
				}
				c = newCell(mode.adopting, beside, copies...)
				log = nil // an adopting pair adopts once at Init
				if !mode.twin {
					op.run(c)
					if want := []string{op.step + " a", "beside"}; !slices.Equal(log, want) {
						t.Fatalf("steps %q, want %q", log, want)
					}
					return
				}
				pinned := c.Acquire() // copy a, which the commit displaces
				done := make(chan struct{})
				go func() { op.run(c); close(done) }()
				for c.Epoch() != 1 {
					time.Sleep(50 * time.Microsecond)
				}
				log = append(log, "publish")     // ordered after the writer's steps by the epoch load
				time.Sleep(2 * time.Millisecond) // room for a beside that does not wait for the drain
				log = append(log, "drain")
				c.Release(pinned)
				<-done
				catchUp := mode.catchUp
				if op.step == "build" {
					catchUp = mode.reload
				}
				if want := []string{op.step + " b", "publish", "drain", "beside", catchUp}; !slices.Equal(log, want) {
					t.Fatalf("steps %q, want %q", log, want)
				}
			})
		}
	}
}
