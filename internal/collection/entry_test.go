package collection

import (
	"errors"
	"maps"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// The two writer-side entry points beside the tape: CommitWindow (a
// window that arrives already netted) and Load (the whole state at
// once). Flush's own contract is tested in collection_test.go and
// journal_test.go; these tests pin what the two add.

// TestCommitWindowBesideTheTape: a replicated window is journaled as it
// arrived — same ops, same order, under the caller's sequence — applied
// and visible on return, and the pending tape is neither flushed by it
// nor disturbed: a pending op still wins when its own window flushes.
func TestCommitWindowBesideTheTape(t *testing.T) {
	for _, mode := range []string{"locked", "snapshot"} {
		t.Run(mode, func(t *testing.T) {
			c := New[string](newSPaCH(), Options{MaxBatch: 1 << 20, Snapshot: mode == "snapshot"})
			defer c.Close()
			type call struct {
				seq uint64
				ops []wal.Op[string]
			}
			var calls []call
			c.SetJournal(func(seq uint64, ops []wal.Op[string]) error {
				calls = append(calls, call{seq, slices.Clone(ops)})
				return nil
			})

			c.Set("mine", geom.Pt2(1, 1)) // pending before, during and after
			win := []wal.Op[string]{
				{ID: "b", P: geom.Pt2(20, 20)},
				{ID: "a", P: geom.Pt2(10, 10)},
				{ID: "mine", P: geom.Pt2(99, 99)},
				{ID: "never", Del: true},
			}
			if err := c.CommitWindow(41, win); err != nil {
				t.Fatalf("CommitWindow: %v", err)
			}
			if len(calls) != 1 || calls[0].seq != 41 || !slices.Equal(calls[0].ops, win) {
				t.Fatalf("journal saw %+v, want the window as given under seq 41", calls)
			}
			st := c.Stats()
			if st.Flushes != 1 || st.Pending != 1 || st.Inserted != 3 || st.Cancelled != 0 {
				t.Fatalf("stats after CommitWindow: %+v, want one window, 3 inserts, the tape still pending", st)
			}
			got := c.WithinIDs(universe())
			if len(got) != 3 {
				t.Fatalf("window not visible on return: WithinIDs = %v", got)
			}
			// Read-your-writes survives: the tape op on "mine" is newer than
			// anything committed underneath it.
			if p, ok := c.Get("mine"); !ok || p != geom.Pt2(1, 1) {
				t.Fatalf("Get(mine) = %v, %t; want the pending (1,1)", p, ok)
			}
			if n := c.Flush(); n != 2 { // one move: delete (99,99), insert (1,1)
				t.Fatalf("flushing the tape applied %d mutations, want 2", n)
			}
			if len(calls) != 2 || calls[1].seq != 0 || len(calls[1].ops) != 1 {
				t.Fatalf("tape window journaled as %+v, want one op under seq 0", calls[1:])
			}
			if p, _ := c.Get("mine"); p != geom.Pt2(1, 1) {
				t.Fatalf("after the flush mine = %v, want (1,1)", p)
			}
			// A zero-op window still journals: the position must advance.
			if err := c.CommitWindow(42, nil); err != nil || len(calls) != 3 || calls[2].seq != 42 {
				t.Fatalf("empty window: err %v, journal %+v", err, calls[2:])
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommitWindowReturnsHookError: the journal hook's failure comes
// back from CommitWindow (and is counted), instead of having to be
// inferred afterwards.
func TestCommitWindowReturnsHookError(t *testing.T) {
	c := New[int](core.NewBruteForce(2), Options{})
	defer c.Close()
	boom := errors.New("disk on fire")
	c.SetJournal(func(uint64, []wal.Op[int]) error { return boom })
	err := c.CommitWindow(1, []wal.Op[int]{{ID: 1, P: geom.Pt2(1, 1)}})
	if !errors.Is(err, boom) {
		t.Fatalf("CommitWindow = %v, want the hook's error", err)
	}
	if n := c.Stats().JournalErrors; n != 1 {
		t.Fatalf("JournalErrors = %d, want 1", n)
	}
	c.SetJournal(nil)
	if err := c.CommitWindow(2, []wal.Op[int]{{ID: 2, P: geom.Pt2(2, 2)}}); err != nil {
		t.Fatalf("CommitWindow without a hook: %v", err)
	}
}

// TestCommitWindowRefusesRepeatedID: a window that holds an ID twice is
// not netted, and the commit body (slots resolved once per window) may
// not see it. It is refused whole — error, no journal call, no change —
// and the next well-formed window commits as if it had never arrived.
func TestCommitWindowRefusesRepeatedID(t *testing.T) {
	p, q := geom.Pt2(10, 10), geom.Pt2(20, 20)
	bad := map[string][]wal.Op[string]{
		"del+del":       {{ID: "a", Del: true}, {ID: "b", P: q}, {ID: "a", Del: true}},
		"del+set":       {{ID: "a", Del: true}, {ID: "a", P: q}},
		"set+del":       {{ID: "a", P: q}, {ID: "a", Del: true}},
		"double insert": {{ID: "new", P: p}, {ID: "new", P: q}},
		"zero ID":       {{ID: "", P: p}, {ID: "", Del: true}},
	}
	for _, mode := range []string{"locked", "snapshot"} {
		for name, win := range bad {
			t.Run(mode+"/"+name, func(t *testing.T) {
				c := New[string](newSPaCH(), Options{Snapshot: mode == "snapshot"})
				defer c.Close()
				if err := c.CommitWindow(1, []wal.Op[string]{{ID: "a", P: p}, {ID: "z", P: p}}); err != nil {
					t.Fatal(err)
				}
				journaled := 0
				c.SetJournal(func(uint64, []wal.Op[string]) error { journaled++; return nil })
				before := c.Stats()
				if err := c.CommitWindow(2, win); err == nil {
					t.Fatal("CommitWindow accepted a window that repeats an ID")
				}
				after := c.Stats()
				if journaled != 0 || after.Inserted != before.Inserted || after.Removed != before.Removed ||
					after.Moved != before.Moved || after.Epoch != before.Epoch {
					t.Fatalf("refused window left a trace: %d journal calls, stats %+v -> %+v", journaled, before, after)
				}
				if got, ok := c.Get("a"); !ok || got != p {
					t.Fatalf("Get(a) = %v, %t after the refused window; want %v", got, ok, p)
				}
				// The same sequence again, netted this time.
				if err := c.CommitWindow(2, []wal.Op[string]{{ID: "a", Del: true}, {ID: "new", P: q}}); err != nil {
					t.Fatal(err)
				}
				if got := c.WithinIDs(universe()); len(got) != 2 || journaled != 1 {
					t.Fatalf("after the netted window: %v, %d journal calls; want z and new, 1", got, journaled)
				}
				if err := c.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCommitWindowZeroAllocWarm: a follower's steady state — one
// journaled CommitWindow per leader window — allocates nothing warm.
func TestCommitWindowZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 512
	l, _, err := wal.Open[int](t.TempDir(), intCodec{}, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := New[int](core.NewNull(2), Options{})
	defer c.Close()
	c.SetJournal(func(seq uint64, ops []wal.Op[int]) error {
		_, err := l.AppendWindowAt(seq, ops)
		return err
	})
	wins := [2][]wal.Op[int]{}
	for i := range n {
		wins[0] = append(wins[0], wal.Op[int]{ID: i, P: geom.Pt2(int64(i)*17, int64(i)*29)})
		wins[1] = append(wins[1], wal.Op[int]{ID: i, P: geom.Pt2(int64(i)*17+5, int64(i)*29+3)})
	}
	seq := uint64(0)
	window := func() {
		seq++
		if err := c.CommitWindow(seq, wins[seq%2]); err != nil {
			t.Fatal(err)
		}
	}
	window()
	window()
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm journaled CommitWindow allocates %.2f/op, want 0", allocs)
	}
	same := func() {
		seq++
		if err := c.CommitWindow(seq, wins[0]); err != nil {
			t.Fatal(err)
		}
	}
	same()
	same()
	if allocs := testing.AllocsPerRun(50, same); allocs != 0 {
		t.Fatalf("warm journaled same-position CommitWindow allocates %.2f/op, want 0", allocs)
	}
}

// countBuilds wraps idx in a gate (snapshot_test.go) that is never held,
// for the Build counter it shares with its replicas.
func countBuilds(idx core.Index) (core.Index, *atomic.Int32) {
	ctl := new(gates)
	return newGate(idx, ctl), &ctl.builds
}

// TestLoadEqualsSetAllFlush: Load leaves a Collection answering every
// read exactly like one that took the same entries through Set + Flush —
// in both read modes, with several IDs sharing a point and an ID listed
// twice — after discarding what was committed and pending before,
// journaling nothing, and running Index.Build once in all: the second copy
// of a snapshot Collection adopts what the first built (recovery and a
// follower's bootstrap pay for one Build, not two).
func TestLoadEqualsSetAllFlush(t *testing.T) {
	const nIDs = 300
	type entry struct {
		id int
		p  geom.Point
	}
	var entries []entry
	want := make(map[int]geom.Point)
	for i := 0; i < nIDs; i++ {
		// i/3: three IDs to a point.
		e := entry{i, geom.Pt2(int64(i/3)*1000, int64(i/3)*77)}
		entries = append(entries, e)
		want[e.id] = e.p
	}
	entries = append(entries, entry{7, geom.Pt2(5, 5)}) // listed twice: the later one wins
	want[7] = geom.Pt2(5, 5)
	seq := func(yield func(int, geom.Point) bool) {
		for _, e := range entries {
			if !yield(e.id, e.p) {
				return
			}
		}
	}

	for name, mk := range innerStacks() {
		for _, snapshot := range []bool{false, true} {
			idx, builds := countBuilds(mk())
			c := New[int](idx, Options{MaxBatch: 1 << 20, Snapshot: snapshot})
			shared := c.cell.Versions() == 2
			journaled := 0
			c.SetJournal(func(uint64, []wal.Op[int]) error { journaled++; return nil })
			// An earlier life: committed objects Load must drop, and pending
			// ops — one on a surviving ID, one on a ghost — it must discard.
			c.Set(5, geom.Pt2(1, 2))
			c.Set(nIDs+1, geom.Pt2(3, 4))
			c.Flush()
			c.Set(5, geom.Pt2(9, 9))
			c.Set(nIDs+2, geom.Pt2(8, 8))
			c.Remove(6)
			journaled = 0

			c.Load(len(entries), seq)

			where := name
			if snapshot {
				where += "/snapshot"
			}
			if journaled != 0 {
				t.Fatalf("%s: Load journaled %d windows, want none", where, journaled)
			}
			// Copy-on-write: two fresh indexes of the stack adopt (a Sharded
			// adopts only when its shard family does).
			a, cow := mk().(core.Adopter)
			cow = cow && a.Adopt(mk())
			if n := builds.Load(); shared != (cow && snapshot) || n != 1 {
				t.Fatalf("%s: sharing %t (copy-on-write index: %t), %d Builds in all; want one", where, shared, cow, n)
			}
			if st := c.Stats(); st.Pending != 0 || st.Objects != len(want) {
				t.Fatalf("%s: stats after Load: %+v, want %d objects and nothing pending", where, st, len(want))
			}
			for _, id := range []int{5, 6, nIDs + 1, nIDs + 2} {
				p, ok := c.Get(id)
				if wp, wok := want[id]; ok != wok || p != wp {
					t.Fatalf("%s: Get(%d) after Load = %v, %t; want %v, %t (pending ops must not survive)", where, id, p, ok, wp, wok)
				}
			}
			verifyAgainstOracle(t, c, want, nIDs+3)

			// ≡ Set-all + Flush, and the loaded Collection keeps working.
			ref := New[int](mk(), Options{MaxBatch: 1 << 20})
			for _, e := range entries {
				ref.Set(e.id, e.p)
			}
			ref.Flush()
			for _, cc := range []*Collection[int]{c, ref} {
				cc.Set(0, geom.Pt2(123, 456))
				cc.Remove(1)
				cc.Flush()
			}
			after := maps.Clone(want)
			after[0] = geom.Pt2(123, 456)
			delete(after, 1)
			verifyAgainstOracle(t, c, after, nIDs+3)
			verifyAgainstOracle(t, ref, after, nIDs+3)
			if a, b := c.Stats().Objects, ref.Stats().Objects; a != b {
				t.Fatalf("%s: %d objects after Load + window, %d after Set-all + window", where, a, b)
			}
			c.Close()
			ref.Close()
		}
	}
}

// TestLoadRangesEntriesOnce: Load consumes its iterator in one pass — the
// first copy's table is filled from it and the twin is cloned from that —
// so a single-use iterator (or one that yields in a different order every
// time, like maps.All) still leaves both snapshot copies complete and
// slot-identical, ready for windows.
func TestLoadRangesEntriesOnce(t *testing.T) {
	const n = 500
	want := make(map[int]geom.Point, n)
	for i := 0; i < n; i++ {
		want[i] = geom.Pt2(int64(i/2)*100, int64(i%7)) // pairs share a point
	}
	ranged := 0
	once := func(yield func(int, geom.Point) bool) {
		if ranged++; ranged > 1 {
			t.Errorf("Load ranged its entries %d times, want once", ranged)
		}
		for id, p := range want {
			if !yield(id, p) {
				return
			}
		}
	}
	c := New[int](newSPaCH(), Options{MaxBatch: 1 << 20, Snapshot: true})
	defer c.Close()
	c.Load(n, once)
	if ranged != 1 {
		t.Fatalf("Load ranged its entries %d times, want once", ranged)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, c, want, n+1)
	// Two windows, so that each copy has been the one written first.
	for w := 0; w < 2; w++ {
		for i := w; i < n; i += 3 {
			want[i] = geom.Pt2(int64(i)*13+int64(w), 99)
			c.Set(i, want[i])
		}
		c.Remove(n - 1 - w)
		delete(want, n-1-w)
		c.Flush()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	verifyAgainstOracle(t, c, want, n+1) // Validates too
}

// TestLoadDiscardsPending: ops pending when Load runs are dropped with the
// state they were meant for. None reaches the index, then or at the next
// flush — which finds nothing to apply — whether it was on an ID the load
// holds or on one it does not.
func TestLoadDiscardsPending(t *testing.T) {
	const n = 100
	at := func(id int) geom.Point { return geom.Pt2(int64(id)*10+100, 5) }
	for _, snapshot := range []bool{false, true} {
		c := New[int](newPOrth(), readOpts(snapshot))
		ghost := geom.Pt2(1, 1)
		c.Set(n, ghost)
		c.Set(0, geom.Pt2(2, 2))
		c.Load(n, func(yield func(int, geom.Point) bool) {
			for id := 0; id < n && yield(id, at(id)); id++ {
			}
		})
		if c.Pending() != 0 {
			t.Fatalf("snapshot=%t: Load left %d ops pending", snapshot, c.Pending())
		}
		if applied := c.Flush(); applied != 0 {
			t.Fatalf("snapshot=%t: the flush after Load applied %d mutations, want 0", snapshot, applied)
		}
		if got := c.WithinIDs(geom.BoxOf(ghost, geom.Pt2(2, 2))); len(got) != 0 {
			t.Fatalf("snapshot=%t: pre-Load pending Sets survived the load: %v", snapshot, got)
		}
		if p, ok := c.Get(0); !ok || p != at(0) {
			t.Fatalf("snapshot=%t: Get(0) = (%v, %t), want the loaded %v", snapshot, p, ok, at(0))
		}
		if got := c.Len(); got != n {
			t.Fatalf("snapshot=%t: Len = %d, want %d", snapshot, got, n)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}
