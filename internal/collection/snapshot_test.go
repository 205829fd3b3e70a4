package collection

import (
	"iter"
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
	"repro/internal/rtree"
)

// The snapshot-read (epoch-pinned) variant of the Collection test suite:
// the same behavioural contract as locked mode, plus the properties the
// mode exists for — readers never wait behind the index apply and at most
// for a commit's drain and table step, reads are never torn across index
// and table, and the epoch counters in Stats track the flush history.

// TestSnapshotOracleAgreementAcrossStacks re-runs the sequential
// differential tape over every documented inner stack: snapshot mode must
// be observationally identical to locked mode, and over a copy-on-write
// stack the epoch must advance by exactly one per non-empty flush. The
// brute-force stacks run locked reads, at epoch 0.
func TestSnapshotOracleAgreementAcrossStacks(t *testing.T) {
	const nIDs = 64
	for name, mk := range innerStacks() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			c := New(mk(), readOpts)
			versions, step := 2, uint64(1)
			if strings.Contains(name, "BruteForce") {
				versions, step = 1, 0
			}
			defer c.Close()
			oracle := make(map[string]geom.Point)
			for i := 0; i < 400; i++ {
				id := key(rng.Intn(nIDs))
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
					if pending && c.Epoch() != before+step {
						t.Fatalf("non-empty flush moved epoch %d -> %d, want +%d", before, c.Epoch(), step)
					}
					verifyAgainstOracle(t, c, oracle, nIDs)
				}
			}
			c.Flush()
			verifyAgainstOracle(t, c, oracle, nIDs)
			st := c.Stats()
			if st.Versions != versions {
				t.Fatalf("snapshot Stats.Versions = %d, want %d", st.Versions, versions)
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

// TestSnapshotSequentialEquivalence re-runs the crowded-domain flush
// contract over pinned views: windows published through the epoch pointer
// as a view, the displaced view unpinned, must leave the Collection
// where one-at-a-time execution leaves a map.
func TestSnapshotSequentialEquivalence(t *testing.T) { sequentialEquivalence(t, true) }

// TestSnapshotMaxBatchMakesWindowVisible: in snapshot mode the Set that
// fills the window applies it too — and publishes it, so the epoch
// advances with that Set and readers of the published version see the
// window.
func TestSnapshotMaxBatchMakesWindowVisible(t *testing.T) {
	c := New(newPOrth(), Options{MaxBatch: 8})
	defer c.Close()
	for i := 0; i < 7; i++ {
		c.Set(key(i), geom.Pt2(int64(i), 1))
	}
	if st := c.Stats(); st.Flushes != 0 || st.Pending != 7 || st.Epoch != 0 || len(c.WithinIDs(universe())) != 0 {
		t.Fatalf("below MaxBatch: %+v, want nothing applied or published", st)
	}
	c.Set("7", geom.Pt2(7, 1))
	if st := c.Stats(); st.Flushes != 1 || st.Pending != 0 || st.Epoch != 1 || st.RetireLag != 0 || len(c.WithinIDs(universe())) != 8 {
		t.Fatalf("the filling Set did not publish its window: %+v", st)
	}
}

// TestSnapshotLoadAndEpochCounters checks Load's whole-epoch swap and the
// Stats counter contract in snapshot mode, over SPaC-H and P-Orth views: a
// Load publishes one epoch as a window does, and a Load after windows
// restarts the index from the loaded contents.
func TestSnapshotLoadAndEpochCounters(t *testing.T) {
	entries := func(n int) iter.Seq2[string, geom.Point] {
		return func(yield func(string, geom.Point) bool) {
			for id := 0; id < n && yield(key(id), geom.Pt2(int64(id)*10+100, 5)); id++ {
			}
		}
	}
	for name, mk := range map[string]func() core.Index{"SPaC-H": newSPaCH, "P-Orth": newPOrth} {
		c := New(mk(), readOpts)
		if st := c.Stats(); st.Epoch != 0 || st.Versions != 2 || st.RetireLag != 0 {
			t.Fatalf("%s: initial stats %+v, want epoch 0, 2 versions, lag 0", name, st)
		}
		c.Load(100, entries(100))
		if got, st := c.Len(), c.Stats(); got != 100 || st.Epoch != 1 || st.Objects != 100 {
			t.Fatalf("%s: after Load: Len %d, stats %+v; want 100 objects at epoch 1", name, got, st)
		}
		c.Set("1000", geom.Pt2(1, 2))
		c.Flush()
		if st := c.Stats(); st.Epoch != 2 || st.RetireLag != 0 {
			t.Fatalf("%s: after a window: %+v, want epoch 2, lag 0", name, st)
		}
		c.Load(10, entries(10))
		// Consecutive windows alternate which copy is written first: both
		// must have restarted from the loaded contents.
		for w := 1; w <= 2; w++ {
			c.Set(key(1000+w), geom.Pt2(3, int64(w)))
			c.Flush()
			if got := len(c.WithinIDs(universe())); got != 10+w {
				t.Fatalf("%s: window %d after the second Load reads %d objects, want %d", name, w, got, 10+w)
			}
		}
		if st := c.Stats(); st.Epoch != 5 || st.Objects != 12 {
			t.Fatalf("%s: final stats %+v, want epoch 5 and 12 objects", name, st)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

// gates is the control of the gate decorator of one Collection's index:
// it holds the at-th BatchDiff or Unpin made on it after hold(at) until
// release is closed, so a test can stop a commit at a chosen step — 1 is
// the apply to the writer, before the publish; 2 is the displaced view's
// Unpin, after the table step — and probe what readers can do meanwhile.
// builds counts the Builds.
type gates struct {
	at, calls atomic.Int32
	builds    atomic.Int32
	entered   chan struct{} // closed when the chosen call is held
	release   chan struct{} // closed by the test to let it proceed
}

func (g *gates) hold(at int32) {
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	g.calls.Store(0)
	g.at.Store(at)
}

func (g *gates) pass() {
	if at := g.at.Load(); at != 0 && g.calls.Add(1) == at {
		close(g.entered)
		<-g.release
	}
}

// gate forwards core.Index alone, so a Collection over it reads under its
// lock; pinningGate is the gate over a copy-on-write index, whose
// capability it passes through.
type gate struct {
	core.Index
	ctl *gates
}

func (g *gate) BatchDiff(ins, del []geom.Point) {
	g.ctl.pass()
	g.Index.BatchDiff(ins, del)
}

func (g *gate) Build(pts []geom.Point) {
	g.ctl.builds.Add(1)
	g.Index.Build(pts)
}

type pinningGate struct{ gate }

func (g *pinningGate) Pin() core.Index { return g.Index.(core.Versioned).Pin() }

func (g *pinningGate) Unpin(v core.Index) {
	g.ctl.pass()
	g.Index.(core.Versioned).Unpin(v)
}

func (g *pinningGate) Current(v core.Index) bool { return g.Index.(core.Versioned).Current(v) }

func (g *pinningGate) Copied() (nodes, bytes uint64) { return g.Index.(core.Versioned).Copied() }

// newGate puts idx behind a gate under ctl that shows as much of idx as
// idx has.
func newGate(idx core.Index, ctl *gates) core.Index {
	g := &pinningGate{gate{Index: idx, ctl: ctl}}
	if _, ok := idx.(core.Versioned); ok {
		return g
	}
	return &g.gate
}

// TestSnapshotReadDuringFlushDoesNotStall is the stall regression the
// tentpole exists to prevent: with a flush held open inside the index
// apply, Get, NearbyIDs, WithinIDs and Stats must all complete against
// the still-published previous epoch. (In locked mode the same probe
// would deadlock — queries wait out the writer lock held across the
// apply — which is why the locked branch of this test does not exist.)
func TestSnapshotReadDuringFlushDoesNotStall(t *testing.T) {
	ctl := new(gates)
	c := New(newGate(newSPaCH(), ctl), readOpts)
	defer c.Close()
	p0 := geom.Pt2(10, 10)
	c.Set("1", p0)
	c.Flush()

	ctl.hold(1) // the next window blocks in its first apply, before it can publish
	flushed := make(chan struct{})
	go func() {
		c.Set("2", geom.Pt2(20, 20))
		c.Flush()
		close(flushed)
	}()
	<-ctl.entered

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, ok := c.Get("1"); !ok || got != p0 {
			t.Errorf("Get(1) during flush = (%v, %t), want (%v, true)", got, ok, p0)
		}
		if got := c.WithinIDs(universe()); len(got) != 1 || got[0].ID != "1" {
			t.Errorf("WithinIDs during flush = %v, want only id 1 at the previous epoch", got)
		}
		if got := c.NearbyIDs(p0, 1); len(got) != 1 || got[0].ID != "1" {
			t.Errorf("NearbyIDs during flush = %v, want id 1", got)
		}
		if st := c.Stats(); st.Epoch != 1 || st.Objects != 1 || st.TableWaits != 0 {
			t.Errorf("Stats during flush = %+v, want the published epoch 1 with 1 object and no read waiting", st)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reads stalled behind the held-open flush")
	}
	close(ctl.release)
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("flush never completed after release")
	}
	if got := c.WithinIDs(universe()); len(got) != 2 {
		t.Fatalf("WithinIDs after flush = %v, want both objects", got)
	}
}

// TestStatsDuringFlushDoesNotStall holds a flush open inside the index
// apply, in both read modes, and requires what never takes the writer
// lock to complete meanwhile: Stats, which reports the committed counters
// and not the held window; a Set, since the pending window is the pending
// lock's; and Pending and Get, which read the pending window — and Get the
// held one too, whose ops it answers until they are published, while a
// Set made meanwhile wins over them before and after the commit. (Snapshot
// mode's queries are TestSnapshotReadDuringFlushDoesNotStall's; under
// locked reads they wait the apply out, the mode's documented cost.)
func TestStatsDuringFlushDoesNotStall(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		ctl := new(gates)
		c := New(inMode(newGate(newSPaCH(), ctl), snapshot), readOpts)
		c.Set("1", geom.Pt2(10, 10))
		c.Flush()

		ctl.hold(1) // the next window blocks in its first apply
		p2, p2moved := geom.Pt2(20, 20), geom.Pt2(25, 25)
		flushed := make(chan struct{})
		go func() {
			c.Set("2", p2)
			c.Flush()
			close(flushed)
		}()
		<-ctl.entered

		p3 := geom.Pt2(30, 30)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if st := c.Stats(); st.Flushes != 1 || st.Objects != 1 || st.Pending != 0 {
				t.Errorf("snapshot=%t: Stats during flush = %+v, want 1 flush, 1 object, 0 pending", snapshot, st)
			}
			c.Set("3", p3)
			if got := c.Pending(); got != 1 {
				t.Errorf("snapshot=%t: Pending after a Set during the flush = %d, want 1", snapshot, got)
			}
			if p, ok := c.Get("3"); !ok || p != p3 {
				t.Errorf("snapshot=%t: Get(3) during the flush = (%v, %t), want (%v, true)", snapshot, p, ok, p3)
			}
			if p, ok := c.Get("2"); !ok || p != p2 {
				t.Errorf("snapshot=%t: Get(2) during the flush that holds it = (%v, %t), want (%v, true) from the committing window", snapshot, p, ok, p2)
			}
			c.Set("2", p2moved)
			if p, ok := c.Get("2"); !ok || p != p2moved {
				t.Errorf("snapshot=%t: Get(2) after a Set during its flush = (%v, %t), want (%v, true)", snapshot, p, ok, p2moved)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot=%t: Stats, Set, Pending or Get stalled behind the held-open flush", snapshot)
		}
		close(ctl.release)
		<-flushed
		if p, ok := c.Get("2"); !ok || p != p2moved {
			t.Fatalf("snapshot=%t: Get(2) once its first window committed = (%v, %t), want the later Set's (%v, true)", snapshot, p, ok, p2moved)
		}
		if got := c.Len(); got != 3 {
			t.Fatalf("snapshot=%t: Len after the flush = %d, want 3", snapshot, got)
		}
		if p, ok := c.Get("2"); !ok || p != p2moved {
			t.Fatalf("snapshot=%t: Get(2) after both windows = (%v, %t), want (%v, true)", snapshot, p, ok, p2moved)
		}
		c.Close()
	}
}

// scanAt is WithinIDs(universe) for a reader that already holds idx,
// sorted by ID.
func scanAt(c *Collection, idx core.Index) []Entry {
	sc := &queryScratch{pts: idx.RangeList(universe(), nil)}
	return byID(resolveAppend(c.tab, sc, nil))
}

// waitFor yields until cond holds; what names the event for the failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never came", what)
		}
	}
}

func byID(es []Entry) []Entry {
	slices.SortFunc(es, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
	return es
}

// TestTableStepRunsInTheDrainGap walks one commit through its drain, over
// both copy-on-write families. The window moves the even objects and hands
// the odd ones' points to new IDs, so the old and the new table answer
// differently even where the index does not. A reader that holds the
// published version keeps the pre-window answer while the window is
// applied beside it, and keeps the commit in its drain; readers that
// arrive meanwhile wait — counted — and return the post-window answer,
// whole, as soon as it lets go, which is before the displaced view is
// unpinned.
func TestTableStepRunsInTheDrainGap(t *testing.T) {
	for name, mk := range map[string]func() core.Index{"SPaC-H, adopting": newSPaCH, "P-Orth, adopting": newPOrth} {
		t.Run(name, func(t *testing.T) { tableStepInTheGap(t, mk) })
	}
}

func tableStepInTheGap(t *testing.T, inner func() core.Index) {
	const n, bystander = 16, "bystander"
	ctl := new(gates)
	c := New(newGate(inner(), ctl), readOpts)
	defer c.Close()
	at := func(i int) geom.Point { return geom.Pt2(int64(i)*100+1, int64(i)*7+1) }
	moved := func(i int) geom.Point { return geom.Pt2(int64(i)*100+50, 9999) }
	stays := geom.Pt2(5, 5)
	old := []Entry{{bystander, stays}}
	fresh := slices.Clone(old)
	for i := 0; i < n; i++ {
		old = append(old, Entry{key(i), at(i)})
		if i%2 == 0 {
			fresh = append(fresh, Entry{key(i), moved(i)})
		} else {
			fresh = append(fresh, Entry{key(n + i), at(i)})
		}
	}
	byID(old)
	byID(fresh)
	for _, e := range old {
		c.Set(e.ID, e.Point)
	}
	c.Flush()

	held, heldEpoch := c.cell.Acquire(), c.Epoch()
	ctl.hold(2)
	// Deferred as well, so that a failure on the way does not leave the
	// commit, and with it Close, waiting.
	release := sync.OnceFunc(c.cell.Release)
	unhold := sync.OnceFunc(func() { close(ctl.release) })
	defer unhold()
	defer release()
	if got := scanAt(c, held); !slices.Equal(got, old) {
		t.Fatalf("before the window: %v, want %v", got, old)
	}
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				c.Set(key(i), moved(i))
			} else {
				c.Remove(key(i))
				c.Set(key(n+i), at(i))
			}
		}
		c.Flush()
	}()
	waitFor(t, "the drain", func() bool { return c.Stats().RetireLag == 1 })
	// The window is applied to the writer, and the commit waits for the
	// held reader: the published version and the table are still the
	// reader's.
	if got := scanAt(c, held); !slices.Equal(got, old) || c.Epoch() != heldEpoch {
		t.Fatalf("held reader during the drain: %v at epoch %d; want %v at epoch %d", got, c.Epoch(), old, heldEpoch)
	}

	// Two late readers, one per way into the table. The bystander is in no
	// window, so its Get is not answered from the pending overlay.
	var scan []Entry
	scanned, got := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanned)
		scan = byID(c.WithinIDs(universe()))
	}()
	go func() {
		defer close(got)
		if p, ok := c.Get(bystander); !ok || p != stays {
			t.Errorf("Get(bystander) = (%v, %t), want %v", p, ok, stays)
		}
	}()
	waitFor(t, "two waiting readers", func() bool { return c.Stats().TableWaits == 2 })
	select {
	case <-scanned:
		t.Fatal("a query went past the draining commit")
	case <-got:
		t.Fatal("a Get went past the draining commit")
	case <-committed:
		t.Fatal("the commit finished while a reader still held the displaced version")
	default:
	}
	if got := scanAt(c, held); !slices.Equal(got, old) || c.Stats().RetireLag != 1 {
		t.Fatalf("held reader beside two waiting ones: %v (retire lag %d), want %v (1)", got, c.Stats().RetireLag, old)
	}

	release()
	<-scanned
	<-got
	if !slices.Equal(scan, fresh) {
		t.Fatalf("reader that waited out the drain: %v, want the whole post-window answer %v", scan, fresh)
	}
	// The waiting readers are back while the displaced view's Unpin is
	// still held: they waited for the table step, not for the replay stage.
	<-ctl.entered
	select {
	case <-committed:
		t.Fatal("the commit finished with its Unpin held")
	default:
	}
	unhold()
	<-committed
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.TableWaits != 2 || st.TableWaitNs == 0 {
		t.Fatalf("Stats = %+v, want the two waiting readers and their time counted", st)
	}
}

// TestLoadIsWholeToReaders: Load swaps the table in the same gap, so a
// concurrent NearbyIDs, WithinIDs or Get answers from the state before it
// or the state after it, never from one's index and the other's table. The
// two states share their points and no ID.
func TestLoadIsWholeToReaders(t *testing.T) {
	for name, mk := range map[string]func() core.Index{"SPaC-H, adopting": newSPaCH, "P-Orth, adopting": newPOrth} {
		t.Run(name, func(t *testing.T) { loadIsWhole(t, mk) })
	}
}

func loadIsWhole(t *testing.T, mk func() core.Index) {
	const nObj, loads, readers = 512, 400, 3
	pos := func(i int) geom.Point { return geom.Pt2(int64(i%32)*(side/32)+5, int64(i/32)*(side/32)+6) }
	// State 0 is IDs [0, nObj), state 1 is [nObj, 2·nObj + 7): seven more
	// objects, stacked on the first seven points.
	state := func(which int) iter.Seq2[string, geom.Point] {
		return func(yield func(string, geom.Point) bool) {
			for i := 0; i < nObj+7*which; i++ {
				if !yield(key(which*nObj+i), pos(i%nObj)) {
					return
				}
			}
		}
	}
	c := New(mk(), readOpts)
	defer c.Close()
	c.Load(nObj, state(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []Entry
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					dst = c.WithinIDsAppend(universe(), dst[:0])
				} else {
					dst = c.NearbyIDsAppend(pos(i%nObj), nObj+7, dst[:0])
				}
				which := 0
				if len(dst) > 0 && unkey(dst[0].ID) >= nObj {
					which = 1
				}
				if len(dst) != nObj+7*which {
					t.Errorf("read saw %d objects of state %d, want %d", len(dst), which, nObj+7*which)
					return
				}
				for _, e := range dst {
					if id, lo := unkey(e.ID), which*nObj; id < lo || id >= lo+nObj+7*which || e.Point != pos((id-lo)%nObj) {
						t.Errorf("read of state %d holds object %q at %v", which, e.ID, e.Point)
						return
					}
				}
				// An ID of state 0 is where state 0 has it, or gone.
				if p, ok := c.Get(key(i % nObj)); ok && p != pos(i%nObj) {
					t.Errorf("Get(%d) = %v, want %v or not live", i%nObj, p, pos(i%nObj))
					return
				}
			}
		}()
	}
	for l := 1; l <= loads; l++ {
		c.Load(nObj+7*(l%2), state(l%2))
	}
	close(stop)
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNeverTorn alternates the entire population between two
// position configurations, one flush per swing, while readers
// continuously scan the universe: every scan must observe exactly one
// configuration in full — N distinct objects, all at their A positions or
// all at their B positions. A half-applied window leaking through the epoch
// pointer, or a table read on the wrong side of its step, shows up here as
// a mixed or short scan (and, under -race, as a data race). It runs over
// both copy-on-write trees, whose views share one structure with the
// writer, over a Sharded of each (where a window that wrote a node a view
// can reach is the bug to catch), and with four objects to a point, so that every hit
// resolves through an owner chain.
func TestSnapshotNeverTorn(t *testing.T) {
	for _, name := range []string{"SPaC-H", "Sharded(SPaC-H)", "P-Orth", "Sharded(P-Orth)"} {
		mk := innerStacks()[name]
		t.Run(name, func(t *testing.T) { snapshotNeverTorn(t, mk, 1) })
	}
	t.Run("SPaC-H, shared points", func(t *testing.T) { snapshotNeverTorn(t, newSPaCH, 4) })
}

func snapshotNeverTorn(t *testing.T, mk func() core.Index, perPoint int) {
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
		at := i / perPoint * perPoint
		x, y := int64(at%32)*(side/32)+5, int64(at/32)*(side/32)+6
		posA[i] = geom.Pt2(x, y)
		posB[i] = geom.Pt2(x, y+1)
	}
	ids := keys(nObj)
	c := New(mk(), readOpts)
	defer c.Close()
	for i, p := range posA {
		c.Set(ids[i], p)
	}
	c.Flush()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []Entry
			seen := make([]bool, nObj)
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
				clear(seen)
				cfg := dst[0].Point[1] % 2
				for _, e := range dst {
					if e.Point[1]%2 != cfg {
						t.Errorf("torn scan: object %q at config %d, first was %d", e.ID, e.Point[1]%2, cfg)
						return
					}
					i := unkey(e.ID)
					if i < 0 || i >= nObj || e.Point != posA[i] && e.Point != posB[i] {
						t.Errorf("object %q at impossible position %v", e.ID, e.Point)
						return
					}
					if seen[i] {
						t.Errorf("object %q resolved twice in one scan", e.ID)
						return
					}
					seen[i] = true
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
			c.Set(ids[i], p)
		}
		c.Flush()
	}
	close(stop)
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotQueryZeroAllocWarm pins the query path's allocation
// contract at every layer of the serving stack: warm queries allocate
// nothing. Under the Collection that is the SPaC-H tree's KNN, whose
// search queue and result heap come from pools (k = 10 and the 20 of the
// benchmark's WITHIN sizing), its RangeList, a Sharded(SPaC-H)'s KNN
// with its pooled fan-out scratch, and the Boost-R baseline's KNN, whose
// best-first queue is the same pooled geom.MinQueue; on top, the
// epoch-pinned Collection over P-Orth and over Sharded(SPaC-H), where a
// read holds the version cell's read lock on the published view.
func TestSnapshotQueryZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates the query closures and sync.Pool drops items at random")
	}
	pts := make([]geom.Point, 2048)
	for i := range pts {
		pts[i] = geom.Pt2(int64(i)*500%side, int64(i)*311%side)
	}
	q := geom.Pt2(side/2, side/2)
	box := geom.BoxOf(geom.Pt2(0, 0), geom.Pt2(side/4, side/4))
	guard := func(name string, warm func()) {
		t.Helper()
		warm()
		if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
			t.Errorf("%s allocates %.2f/op warm, want 0", name, allocs)
		}
	}

	tree, sharded := newSPaCH(), innerStacks()["Sharded(SPaC-H)"]()
	tree.Build(pts)
	sharded.Build(pts)
	var out []geom.Point
	guard("SPaC-H KNN k=10", func() { out = tree.KNN(q, 10, out[:0]) })
	guard("SPaC-H KNN k=20", func() { out = tree.KNN(q, 20, out[:0]) })
	guard("SPaC-H RangeList", func() { out = tree.RangeList(box, out[:0]) })
	guard("Sharded(SPaC-H) KNN", func() { out = sharded.KNN(q, 10, out[:0]) })
	boostR := rtree.New(2)
	boostR.Build(pts)
	guard("Boost-R KNN k=10", func() { out = boostR.KNN(q, 10, out[:0]) })

	for _, name := range []string{"P-Orth", "Sharded(SPaC-H)"} {
		c := New(innerStacks()[name](), readOpts)
		defer c.Close()
		for i, p := range pts {
			c.Set(key(i), p)
		}
		c.Flush()
		var dst []Entry
		guard("snapshot Collection over "+name, func() {
			dst = c.NearbyIDsAppend(q, 10, dst[:0])
			dst = c.WithinIDsAppend(box, dst[:0])
			c.Get("64")
		})
	}
}

// TestSnapshotFlushZeroAllocWarm extends the PR-5 zero-alloc guard to
// snapshot mode: warm same-position windows — plan, apply, drain,
// publish, catch-up — run with zero steady-state allocations; the two
// Version structs are permanent.
func TestSnapshotFlushZeroAllocWarm(t *testing.T) {
	const n = 512
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Pt2(int64(i)*17, int64(i)*29)
	}
	ids := keys(n)
	c := New(newNullViews(), Options{MaxBatch: 1 << 20, Obs: obs.New()})
	for i, p := range pos {
		c.Set(ids[i], p)
	}
	c.Flush()
	window := func() {
		for i, p := range pos {
			c.Set(ids[i], p)
		}
		c.Flush()
	}
	window()
	window() // the writer and its views warmed through two publish cycles
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm snapshot same-position window allocates %.2f/op, want 0", allocs)
	}
}

// TestSnapshotRequiresEmptyIndexes documents the construction contract
// over a copy-on-write index: New panics when the inner index starts
// non-empty, whose points would have no owning ID.
func TestSnapshotRequiresEmptyIndexes(t *testing.T) {
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
		idx := newSPaCH()
		idx.Build([]geom.Point{geom.Pt2(1, 1)})
		New(idx, Options{})
	})
}
