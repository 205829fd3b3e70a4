package collection

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// The snapshot-read (epoch-pinned) variant of the Collection test suite:
// the same behavioural contract as locked mode, plus the properties the
// mode exists for — readers never wait behind a flush, reads are never
// torn across the index/fwd/rev triple, and the epoch counters in Stats
// track the flush history.

// TestSnapshotOracleAgreementAcrossStacks re-runs the sequential
// differential tape with Options.Snapshot enabled over every documented
// inner stack: snapshot mode must be observationally identical to locked
// mode, and the epoch must advance by exactly one per non-empty flush.
func TestSnapshotOracleAgreementAcrossStacks(t *testing.T) {
	const nIDs = 64
	for name, mk := range innerStacks() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			c := New[int](mk(), Options{MaxBatch: 1 << 20, Snapshot: mk})
			defer c.Close()
			oracle := make(map[int]geom.Point)
			for i := 0; i < 400; i++ {
				id := rng.Intn(nIDs)
				if rng.Intn(5) == 0 {
					c.Remove(id)
					delete(oracle, id)
				} else {
					p := geom.Pt2(int64(rng.Intn(64))*(side/64), int64(rng.Intn(64))*(side/64))
					c.Set(id, p)
					oracle[id] = p
				}
				if rng.Intn(25) == 0 {
					before := c.Epoch()
					pending := c.Pending() > 0
					c.Flush()
					if pending && c.Epoch() != before+1 {
						t.Fatalf("non-empty flush moved epoch %d -> %d, want +1", before, c.Epoch())
					}
					verifyAgainstOracle(t, c, oracle, nIDs)
				}
			}
			c.Flush()
			verifyAgainstOracle(t, c, oracle, nIDs)
			st := c.Stats()
			if st.Versions != 2 {
				t.Fatalf("snapshot Stats.Versions = %d, want 2", st.Versions)
			}
			if st.RetireLag != 0 {
				t.Fatalf("quiescent Stats.RetireLag = %d, want 0", st.RetireLag)
			}
			if st.Epoch != c.Epoch() {
				t.Fatalf("Stats.Epoch = %d, Epoch() = %d", st.Epoch, c.Epoch())
			}
			if st.Objects != len(oracle) {
				t.Fatalf("Stats.Objects = %d, oracle has %d", st.Objects, len(oracle))
			}
		})
	}
}

// gate blocks BatchDiff on an index until released, so tests can hold a
// flush open mid-apply and probe what readers can still do.
type gate struct {
	core.Index
	armed   chan struct{} // closed by the test to arm blocking
	entered chan struct{} // signalled when a BatchDiff is held at the gate
	release chan struct{} // closed by the test to let the apply proceed
}

func newGate(inner core.Index) *gate {
	return &gate{
		Index:   inner,
		armed:   make(chan struct{}),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
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

// TestSnapshotReadDuringFlushDoesNotStall is the stall regression the
// tentpole exists to prevent: with a flush held open inside the index
// apply, Get, NearbyIDs, WithinIDs and Stats must all complete against
// the still-published previous epoch. (In locked mode the same probe
// would deadlock — queries wait out the writer lock held across the
// apply — which is why the locked branch of this test does not exist.)
func TestSnapshotReadDuringFlushDoesNotStall(t *testing.T) {
	g := newGate(core.NewBruteForce(2))
	c := New[int](g, Options{
		MaxBatch: 1 << 20,
		Snapshot: func() core.Index { return newGate(core.NewBruteForce(2)) },
	})
	defer c.Close()
	p0 := geom.Pt2(10, 10)
	c.Set(1, p0)
	c.Flush()

	close(g.armed) // next BatchDiff on the published-then-standby twin blocks
	flushed := make(chan struct{})
	go func() {
		c.Set(2, geom.Pt2(20, 20))
		c.Flush()
		close(flushed)
	}()
	// After the preload flush the twin built from idx (the gated g) is the
	// standby, so the second flush blocks inside g's BatchDiff — before
	// it can publish. Wait until it is held at the gate.
	<-g.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, ok := c.Get(1); !ok || got != p0 {
			t.Errorf("Get(1) during flush = (%v, %t), want (%v, true)", got, ok, p0)
		}
		if got := c.WithinIDs(universe()); len(got) != 1 || got[0].ID != 1 {
			t.Errorf("WithinIDs during flush = %v, want only id 1 at the previous epoch", got)
		}
		if got := c.NearbyIDs(p0, 1); len(got) != 1 || got[0].ID != 1 {
			t.Errorf("NearbyIDs during flush = %v, want id 1", got)
		}
		if st := c.Stats(); st.Epoch != 1 || st.Objects != 1 {
			t.Errorf("Stats during flush = %+v, want the published epoch 1 with 1 object", st)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reads stalled behind the held-open flush")
	}
	close(g.release)
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("flush never completed after release")
	}
	if got := c.WithinIDs(universe()); len(got) != 2 {
		t.Fatalf("WithinIDs after flush = %v, want both objects", got)
	}
}

// TestSnapshotNeverTorn alternates the entire population between two
// position configurations, one flush per swing, while readers
// continuously scan the universe: every scan must observe exactly one
// configuration in full — N objects, all at their A positions or all at
// their B positions. A half-applied window leaking through the epoch
// pointer shows up here as a mixed or short scan (and, under -race, as a
// data race on the triple). It runs over a tree whose copies share one
// structure, over a Sharded of such trees (where a window that wrote a
// node its twin can reach is the bug to catch), and over the same tree
// with the sharing hidden, so that every window is applied twice.
func TestSnapshotNeverTorn(t *testing.T) {
	for name, mk := range map[string]func() core.Index{
		"SPaC-H":            newSPaCH,
		"Sharded(SPaC-H)":   innerStacks()["Sharded(SPaC-H)"],
		"SPaC-H re-applied": func() core.Index { return core.WithReplica(newSPaCH(), newSPaCH) },
	} {
		t.Run(name, func(t *testing.T) { snapshotNeverTorn(t, mk) })
	}
}

func snapshotNeverTorn(t *testing.T, mk func() core.Index) {
	const (
		nObj    = 1024 // past the leaf wrap in every shard: interior nodes too
		windows = 60
		readers = 4
	)
	// Spread over the universe so every shard holds some; the
	// configuration is the parity of y.
	posA := make([]geom.Point, nObj)
	posB := make([]geom.Point, nObj)
	for i := range posA {
		x, y := int64(i%32)*(side/32)+5, int64(i/32)*(side/32)+6
		posA[i] = geom.Pt2(x, y)
		posB[i] = geom.Pt2(x, y+1)
	}
	c := New[int](mk(), Options{MaxBatch: 1 << 20, Snapshot: mk})
	defer c.Close()
	for i, p := range posA {
		c.Set(i, p)
	}
	c.Flush()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []Entry[int]
			for {
				select {
				case <-stop:
					return
				default:
				}
				dst = c.WithinIDsAppend(universe(), dst[:0])
				if len(dst) != nObj {
					t.Errorf("scan saw %d objects, want %d", len(dst), nObj)
					return
				}
				cfg := dst[0].Point[1] % 2
				for _, e := range dst {
					if e.Point[1]%2 != cfg {
						t.Errorf("torn scan: object %d at config %d, first was %d", e.ID, e.Point[1]%2, cfg)
						return
					}
					if e.Point != posA[e.ID] && e.Point != posB[e.ID] {
						t.Errorf("object %d at impossible position %v", e.ID, e.Point)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < windows; w++ {
		pts := posB
		if w%2 == 1 {
			pts = posA
		}
		for i, p := range pts {
			c.Set(i, p)
		}
		c.Flush()
	}
	close(stop)
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotQueryZeroAllocWarm pins the tentpole's performance
// contract: the epoch-pinned query path allocates nothing in steady
// state — Pin/Unpin are two atomic ops on a long-lived Version, and all
// the PR-5 scratch reuse still applies.
func TestSnapshotQueryZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates the query closures")
	}
	mk := func() core.Index { return core.NewBruteForce(2) }
	c := New[int](mk(), Options{MaxBatch: 1 << 20, Snapshot: mk})
	defer c.Close()
	for i := 0; i < 128; i++ {
		c.Set(i, geom.Pt2(int64(i)*50, int64(i)*31))
	}
	c.Flush()
	q := geom.Pt2(side/2, side/2)
	box := geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4))
	var dst []Entry[int]
	warm := func() {
		dst = c.NearbyIDsAppend(q, 10, dst[:0])
		dst = c.WithinIDsAppend(box, dst[:0])
		c.Get(64)
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("epoch-pinned query path allocates %.2f/op, want 0", allocs)
	}
}

// TestSnapshotFlushZeroAllocWarm extends the PR-5 zero-alloc guard to
// snapshot mode: warm same-position windows — plan, apply, publish,
// drain, catch-up — run with zero steady-state allocations; the two
// Version structs are permanent.
func TestSnapshotFlushZeroAllocWarm(t *testing.T) {
	const n = 512
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Pt2(int64(i)*17, int64(i)*29)
	}
	mk := func() core.Index { return core.NewNull(2) }
	c := New[int](mk(), Options{MaxBatch: 1 << 20, Snapshot: mk, Obs: obs.New()})
	for i, p := range pos {
		c.Set(i, p)
	}
	c.Flush()
	window := func() {
		for i, p := range pos {
			c.Set(i, p)
		}
		c.Flush()
	}
	window()
	window() // both twins warmed through one full publish cycle each
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm snapshot same-position window allocates %.2f/op, want 0", allocs)
	}
}

// TestSnapshotRequiresEmptyIndexes documents the construction contract:
// snapshot mode panics when the inner index or the factory's twin starts
// non-empty, since the twins could then never agree.
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
		New[int](nonEmpty(), Options{Snapshot: func() core.Index { return core.NewBruteForce(2) }})
	})
	assertPanics("non-empty twin", func() {
		New[int](core.NewBruteForce(2), Options{Snapshot: nonEmpty})
	})
}
