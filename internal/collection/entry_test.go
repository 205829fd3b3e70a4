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
			opts := Options{MaxBatch: 1 << 20}
			if mode == "snapshot" {
				opts.Snapshot = newSPaCH
			}
			c := New[string](newSPaCH(), opts)
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
	// Moves churn reverse-multimap buckets, as in the Flush guards.
	if allocs := testing.AllocsPerRun(50, window); allocs >= 1 {
		t.Fatalf("warm journaled CommitWindow allocates %.2f/op, want amortized < 1", allocs)
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

// buildCount wraps an index and counts its Builds.
type buildCount struct {
	core.Index
	builds atomic.Int32
}

func (b *buildCount) Build(pts []geom.Point) {
	b.builds.Add(1)
	b.Index.Build(pts)
}

// TestLoadEqualsSetAllFlush: Load leaves a Collection answering every
// read exactly like one that took the same entries through Set + Flush —
// in both read modes, with several IDs sharing a point and an ID listed
// twice — after discarding what was committed and pending before,
// journaling nothing, and building every inner copy exactly once.
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
			copies := []*buildCount{{Index: mk()}}
			opts := Options{MaxBatch: 1 << 20}
			if snapshot {
				copies = append(copies, &buildCount{Index: mk()})
				opts.Snapshot = func() core.Index { return copies[1] }
			}
			c := New[int](copies[0], opts)
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
			for i, b := range copies {
				if n := b.builds.Load(); n != 1 {
					t.Fatalf("%s: copy %d built %d times, want once", where, i, n)
				}
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
