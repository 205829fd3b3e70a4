package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The twin protocol — readers never stall, never see a torn window, the
// displaced copy is untouched until drained, both copies converge — is
// tested here, once, against a Cell over a toy state. Store, Collection
// and Sharded test that their queries go through the cell and what their
// windows mean.

// pair is the toy state: a window adds its value to both halves, so a
// torn read shows up as x != y. applies counts windows applied to this
// copy; the atomics let a test watch a copy the writer owns.
type pair struct {
	x, y    int
	applies atomic.Int64
	gate    *gate // optional: blocks apply on this copy while armed
}

type gate struct{ armed, entered, release chan struct{} }

func newGate() *gate {
	return &gate{make(chan struct{}), make(chan struct{}, 1), make(chan struct{})}
}

func applyPair(p *pair, w int) {
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

func newCell(copies ...*pair) *Cell[*pair, int] {
	c := new(Cell[*pair, int])
	c.Init(applyPair, copies...)
	return c
}

// adoptPair is the catch-up of copies that take their contents from one
// another instead of re-applying: it only reads ahead, which has readers.
func adoptPair(behind, ahead *pair) { behind.x, behind.y = ahead.x, ahead.y }

// modes runs f over a one-copy (locked) cell and two two-copy cells: the
// twin whose displaced copy has every window applied again, and the one
// whose displaced copy adopts the published contents.
func modes(t *testing.T, f func(t *testing.T, c *Cell[*pair, int], twin bool)) {
	t.Run("locked", func(t *testing.T) { f(t, newCell(&pair{}), false) })
	t.Run("twin", func(t *testing.T) { f(t, newCell(&pair{}, &pair{}), true) })
	t.Run("adopting", func(t *testing.T) {
		c := newCell(&pair{}, &pair{})
		c.CatchUp(func(behind, ahead *pair, _ int) { adoptPair(behind, ahead) })
		f(t, c, true)
	})
}

func read(c *Cell[*pair, int]) (x, y int, epoch uint64) {
	v := c.Acquire()
	defer c.Release(v)
	return v.Data.x, v.Data.y, v.Epoch()
}

func TestSnapshotCommitAndCounters(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
		wantVersions, perCommit := 1, uint64(0)
		if twin {
			wantVersions, perCommit = 2, 1
		}
		if c.Versions() != wantVersions || c.Epoch() != 0 || c.RetireLag() != 0 {
			t.Fatalf("fresh cell: versions %d epoch %d lag %d", c.Versions(), c.Epoch(), c.RetireLag())
		}
		sum := 0
		for w := 1; w <= 5; w++ {
			c.Commit(w, nil, time.Time{})
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
	c := newCell(a, b)
	c.Commit(1, nil, time.Time{}) // b published, a caught up and standing by
	c.Commit(1, nil, time.Time{}) // a published; the next commit writes b first
	close(g.armed)
	committed := make(chan struct{})
	go func() { c.Commit(1, nil, time.Time{}); close(committed) }()
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
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
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
			c.Commit(1, nil, time.Time{})
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
	c := newCell(a, b)
	pinned := c.Acquire()
	if pinned.Data != a {
		t.Fatal("the first copy is not the initially published one")
	}
	committed := make(chan struct{})
	go func() { c.Commit(7, nil, time.Time{}); close(committed) }()
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
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
		c.Commit(3, nil, time.Time{})
		before := c.Epoch()
		builds := 0
		var follow func(behind, ahead *pair)
		if t.Name() == "TestSnapshotRebuildResetsEveryCopy/adopting" {
			follow = adoptPair
		}
		c.Rebuild(func(p *pair) { p.x, p.y, builds = 100, 100, builds+1 }, follow)
		if want := c.Versions(); follow != nil && builds != 1 || follow == nil && builds != want {
			t.Fatalf("Rebuild ran build %d times over %d copies (follow installed: %v)", builds, want, follow != nil)
		}
		if twin && c.Epoch() != before+1 {
			t.Fatalf("Rebuild published epoch %d, want %d", c.Epoch(), before+1)
		}
		// Consecutive commits alternate which copy is read: both must
		// have restarted from the rebuilt contents.
		for i := 1; i <= 4; i++ {
			c.Commit(1, nil, time.Time{})
			if x, y, _ := read(c); x != 100+i || y != 100+i {
				t.Fatalf("commit %d after Rebuild: read (%d, %d), want %d", i, x, y, 100+i)
			}
		}
	})
}

// TestSnapshotSpanStages pins which flush-span stages each mode stamps
// and that the span carries the published epoch.
func TestSnapshotSpanStages(t *testing.T) {
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
		var sp obs.FlushSpan
		c.Commit(5, &sp, time.Now())
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
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					c.Commit(1, nil, time.Time{})
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
			c.Commit(0, nil, time.Time{})
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
	modes(t, func(t *testing.T, c *Cell[*pair, int], twin bool) {
		var sp obs.FlushSpan
		if allocs := testing.AllocsPerRun(100, func() {
			c.Commit(1, &sp, time.Time{})
			read(c)
		}); allocs != 0 {
			t.Fatalf("commit+read allocates %.2f/op, want 0", allocs)
		}
	})
}
