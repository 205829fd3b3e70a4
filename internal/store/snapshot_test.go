package store

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// The snapshot-read (epoch-pinned) variant of the Store test suite: same
// visibility contract as locked mode, readers never wait behind a flush,
// zero steady-state allocations, and epoch counters that track the flush
// history.

func snapOptions() Options {
	return Options{MaxBatch: 1 << 20, Snapshot: func() core.Index { return core.NewBruteForce(2) }}
}

// TestSnapshotSequentialEquivalence re-runs the flush-contract
// differential with snapshot reads enabled: arbitrary op sequences with
// arbitrary flush points must be observationally identical to one-at-a-
// time execution, epoch pointer and twin catch-up notwithstanding.
func TestSnapshotSequentialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	domain := make([]geom.Point, 0, 16)
	for x := int64(0); x < 4; x++ {
		for y := int64(0); y < 4; y++ {
			domain = append(domain, geom.Pt2(x, y))
		}
	}
	for trial := 0; trial < 50; trial++ {
		s := New(core.NewBruteForce(2), snapOptions())
		oracle := core.NewBruteForce(2)
		for i := 0; i < 200; i++ {
			p := domain[rng.Intn(len(domain))]
			if rng.Intn(2) == 0 {
				s.Insert(p)
				oracle.BatchInsert([]geom.Point{p})
			} else {
				s.Delete(p)
				oracle.BatchDelete([]geom.Point{p})
			}
			if rng.Intn(10) == 0 {
				s.Flush()
			}
		}
		s.Close()
		for _, p := range domain {
			box := geom.BoxOf(p, p)
			if got, want := s.RangeCount(box), oracle.RangeCount(box); got != want {
				t.Fatalf("trial %d: point %v stored %d times, sequential execution gives %d",
					trial, p, got, want)
			}
		}
	}
}

// gate blocks BatchDiff on an index once armed, until released, so a
// test can hold a flush open mid-apply and probe what readers can do.
type gate struct {
	core.Index
	armed, entered, release chan struct{}
}

func newGate(inner core.Index) *gate {
	return &gate{Index: inner, armed: make(chan struct{}), entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gate) BatchDiff(ins, del []geom.Point) {
	select {
	case <-g.armed:
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	default:
	}
	g.Index.BatchDiff(ins, del)
}

// TestSnapshotReadDuringFlushDoesNotStall is the Store's wiring check for the
// cell's reader policy (the protocol itself is tested in internal/epoch):
// with a flush held open inside BatchDiff, Stats completes in both modes
// — it never takes the writer lock — and in snapshot mode so do the
// queries, against the still-published previous epoch.
func TestSnapshotReadDuringFlushDoesNotStall(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		g := newGate(core.NewBruteForce(2))
		opts := Options{MaxBatch: 1 << 20}
		if snapshot {
			opts.Snapshot = func() core.Index { return core.NewBruteForce(2) }
		}
		s := New(g, opts)
		p0 := geom.Pt2(10, 10)
		s.Insert(p0)
		s.Flush()

		close(g.armed) // in snapshot mode g is the standby now: the next window lands on it first
		flushed := make(chan struct{})
		go func() {
			defer close(flushed)
			s.Insert(geom.Pt2(20, 20))
			s.Flush()
		}()
		<-g.entered

		done := make(chan struct{})
		go func() {
			defer close(done)
			if st := s.Stats(); st.Flushes != 1 || st.Pending != 0 {
				t.Errorf("snapshot=%t: Stats during flush = %+v, want 1 flush, 0 pending", snapshot, st)
			}
			if !snapshot {
				return
			}
			if got := s.KNN(p0, 1, nil); len(got) != 1 || got[0] != p0 {
				t.Errorf("KNN during flush = %v, want [%v]", got, p0)
			}
			if got := s.RangeCount(universe()); got != 1 {
				t.Errorf("RangeCount during flush = %d, want 1 (previous epoch)", got)
			}
			if got := s.RangeList(universe(), nil); len(got) != 1 {
				t.Errorf("RangeList during flush = %v, want one point", got)
			}
			if st := s.Stats(); st.Epoch != 1 {
				t.Errorf("Stats during flush = %+v, want published epoch 1", st)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot=%t: reads stalled behind the held-open flush", snapshot)
		}
		close(g.release)
		<-flushed
		if got := s.RangeCount(universe()); got != 2 {
			t.Fatalf("snapshot=%t: RangeCount after flush = %d, want 2", snapshot, got)
		}
		s.Close()
	}
}

// TestSnapshotFlushZeroAllocWarm extends the zero-alloc flush guard to
// snapshot mode: warm windows — apply, publish, drain, catch-up —
// allocate nothing; the two Versions are permanent.
func TestSnapshotFlushZeroAllocWarm(t *testing.T) {
	pts := uniquePoints(512, 7)
	s := New(core.NewNull(2), Options{
		MaxBatch: 1 << 20,
		Snapshot: func() core.Index { return core.NewNull(2) },
		Obs:      obs.New(),
	})
	window := func() {
		s.BatchInsert(pts)
		s.Flush()
		s.BatchDelete(pts)
		s.Flush()
	}
	window()
	window() // both twins warmed through one full publish cycle each
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm snapshot flush allocates %.2f/op, want 0", allocs)
	}
}

// TestSnapshotQueryZeroAllocWarm pins the epoch-pinned query path at
// zero steady-state allocations with reused result buffers.
func TestSnapshotQueryZeroAllocWarm(t *testing.T) {
	pts := uniquePoints(256, 9)
	s := New(core.NewBruteForce(2), snapOptions())
	defer s.Close()
	s.BatchInsert(pts)
	s.Flush()
	q := geom.Pt2(side/2, side/2)
	box := geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4))
	var dst []geom.Point
	warm := func() {
		dst = s.KNN(q, 10, dst[:0])
		s.RangeCount(box)
		dst = s.RangeList(box, dst[:0])
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("epoch-pinned query path allocates %.2f/op, want 0", allocs)
	}
}

// TestSnapshotBuildAndEpochCounters checks Build's whole-epoch swap and
// the Stats counter contract in snapshot mode.
func TestSnapshotBuildAndEpochCounters(t *testing.T) {
	s := New(core.NewBruteForce(2), snapOptions())
	defer s.Close()
	st := s.Stats()
	if st.Epoch != 0 || st.Versions != 2 || st.RetireLag != 0 {
		t.Fatalf("initial stats: %+v, want epoch 0, 2 versions, lag 0", st)
	}
	pts := uniquePoints(100, 3)
	s.Build(pts)
	if got := s.Size(); got != len(pts) {
		t.Fatalf("Size after Build = %d, want %d", got, len(pts))
	}
	if st := s.Stats(); st.Epoch != 1 {
		t.Fatalf("Build published epoch %d, want 1", st.Epoch)
	}
	s.Insert(geom.Pt2(1, 2))
	s.Flush()
	if st := s.Stats(); st.Epoch != 2 || st.RetireLag != 0 {
		t.Fatalf("stats after flush: %+v, want epoch 2, lag 0", st)
	}
	// Build after incremental updates starts the next epoch from the new
	// contents on both twins: flush a further window and re-check.
	s.Build(pts[:10])
	s.Insert(geom.Pt2(3, 4))
	s.Flush()
	if got := s.Size(); got != 11 {
		t.Fatalf("Size after rebuild+insert = %d, want 11", got)
	}
}

// TestSnapshotRequiresEmptyIndexes documents the construction contract:
// snapshot mode panics when either twin starts non-empty.
func TestSnapshotRequiresEmptyIndexes(t *testing.T) {
	nonEmpty := func() core.Index {
		idx := core.NewBruteForce(2)
		idx.Build([]geom.Point{geom.Pt2(1, 1)})
		return idx
	}
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic, got none", name)
			}
		}()
		f()
	}
	assertPanics("non-empty inner", func() {
		New(nonEmpty(), Options{Snapshot: func() core.Index { return core.NewBruteForce(2) }})
	})
	assertPanics("non-empty twin", func() {
		New(core.NewBruteForce(2), Options{Snapshot: nonEmpty})
	})
}
