package collection

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// TestJournalReceivesNettedWindow pins the SetJournal contract: the hook
// sees exactly the netted window — at most one op per ID, last write
// wins, removals flagged Del — before the flush applies it, and sees
// nothing for flushes with no pending ops.
func TestJournalReceivesNettedWindow(t *testing.T) {
	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	var calls int
	var got map[string]wal.Op
	c.SetJournal(func(seq uint64, ops []wal.Op) error {
		if seq != 0 {
			t.Errorf("a Flush journaled under seq %d, want 0 (the journal assigns the next one)", seq)
		}
		calls++
		got = make(map[string]wal.Op, len(ops))
		for _, o := range ops {
			if _, dup := got[o.ID]; dup {
				t.Errorf("journal window has duplicate ID %q", o.ID)
			}
			got[o.ID] = o
		}
		return nil
	})

	pa, pb := geom.Pt2(1, 2), geom.Pt2(3, 4)
	c.Set("a", geom.Pt2(9, 9)) // superseded: netting must drop it
	c.Set("a", pa)
	c.Set("b", pb)
	c.Set("gone", geom.Pt2(5, 5))
	c.Remove("gone") // set-then-remove nets to a single delete
	if n := c.Flush(); n == 0 {
		t.Fatal("Flush applied nothing")
	}
	if calls != 1 {
		t.Fatalf("journal called %d times, want 1", calls)
	}
	if len(got) != 3 {
		t.Fatalf("journal window has %d ops, want 3: %v", len(got), got)
	}
	if o := got["a"]; o.Del || o.P != pa {
		t.Fatalf("op for a = %+v, want last write %v", o, pa)
	}
	if o := got["b"]; o.Del || o.P != pb {
		t.Fatalf("op for b = %+v, want %v", o, pb)
	}
	if o := got["gone"]; !o.Del {
		t.Fatalf("op for gone = %+v, want a delete", o)
	}

	// No pending ops: the hook must not fire for an empty flush.
	if n := c.Flush(); n != 0 || calls != 1 {
		t.Fatalf("empty Flush = %d, journal calls = %d; want 0, 1", n, calls)
	}

	// Hook errors are counted, and the in-memory commit still happens.
	c.SetJournal(func(uint64, []wal.Op) error { return errors.New("disk on fire") })
	c.Set("c", geom.Pt2(7, 7))
	c.Flush()
	if errs := c.Stats().JournalErrors; errs != 1 {
		t.Fatalf("JournalErrors = %d, want 1", errs)
	}
	if p, ok := c.Get("c"); !ok || p != geom.Pt2(7, 7) {
		t.Fatalf("commit aborted on journal error: Get(c) = %v, %t", p, ok)
	}
}

// TestCheckpointMatchesCommittedState pins Checkpoint: it reports the
// committed forward table (the fold of every journaled window) and
// excludes pending ops, in both locking modes.
func TestCheckpointMatchesCommittedState(t *testing.T) {
	for _, name := range []string{"locked", "snapshot"} {
		t.Run(name, func(t *testing.T) {
			c := New(inMode(newSPaCH(), name == "snapshot"), readOpts)
			defer c.Close()
			want := map[string]geom.Point{
				"a": geom.Pt2(1, 1),
				"b": geom.Pt2(2, 2),
			}
			for id, p := range want {
				c.Set(id, p)
			}
			c.Set("dead", geom.Pt2(9, 9))
			c.Remove("dead")
			c.Flush()
			c.Set("pending", geom.Pt2(3, 3)) // unflushed: must not appear

			c.Checkpoint(func(objects int, entries iter.Seq2[string, geom.Point]) {
				if objects != len(want) {
					t.Errorf("objects = %d, want %d", objects, len(want))
				}
				seen := make(map[string]geom.Point)
				for id, p := range entries {
					seen[id] = p
				}
				if len(seen) != len(want) {
					t.Errorf("entries = %v, want %v", seen, want)
				}
				for id, p := range want {
					if seen[id] != p {
						t.Errorf("entries[%q] = %v, want %v", id, seen[id], p)
					}
				}
			})
		})
	}
}

// TestJournalFlushZeroAllocWarm extends the scratch-reuse alloc guard
// across the durability hook: with a real WAL attached (FsyncNever),
// warm Set→Flush cycles must stay allocation-free — the wal.Op window
// is built in recycled scratch and the record encode buffer is reused
// inside wal.Log. Same thresholds as TestSetFlushZeroAllocWarm: exactly
// zero, for same-position windows and for moves. The IDs are built once,
// as a server's would be by the time its window flushes.
func TestJournalFlushZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 512
	ids := journalIDs(n)
	posA := make([]geom.Point, n)
	posB := make([]geom.Point, n)
	for i := range posA {
		posA[i] = geom.Pt2(int64(i)*17, int64(i)*29)
		posB[i] = geom.Pt2(int64(i)*17+5, int64(i)*29+3)
	}
	newJournaled := func(t *testing.T) *Collection {
		t.Helper()
		c := New(core.NewNull(2), Options{MaxBatch: 1 << 20})
		journalTo(t, c)
		return c
	}
	t.Run("same-position windows", func(t *testing.T) {
		c := newJournaled(t)
		window := func() {
			for i, p := range posA {
				c.Set(ids[i], p)
			}
			c.Flush()
		}
		window()
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm journaled same-position window allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("move windows", func(t *testing.T) {
		c := newJournaled(t)
		for i, p := range posA {
			c.Set(ids[i], p)
		}
		c.Flush()
		cur, next := posA, posB
		window := func() {
			for i, p := range next {
				c.Set(ids[i], p)
			}
			c.Flush()
			cur, next = next, cur
		}
		window()
		window()
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("warm journaled move window allocates %.2f/op, want 0", allocs)
		}
	})
}

// journalIDs returns n distinct IDs, built once for the alloc guards.
func journalIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%07d", i)
	}
	return ids
}

// journalTo journals c's windows to a fresh WAL (FsyncNever) that the
// test's cleanup closes after c.
func journalTo(t *testing.T, c *Collection) {
	t.Helper()
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c.SetJournal(func(seq uint64, ops []wal.Op) error {
		_, err := l.AppendWindowAt(seq, ops)
		return err
	})
	t.Cleanup(c.Close)
}

// TestRecoverFromWAL: Recover with wal.Open as its stream folds the
// snapshot and the log tail into the table — a later op for an ID wins, a
// delete frees its slot, a view of the read buffer is copied — and a
// snapshot whose checksum fails hands the fold nothing: Open fails, and
// the Collection keeps its state, pending ops included, as it does for a
// stream that fails after it folded some ops.
func TestRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]geom.Point)
	for i := 0; i < 300; i++ {
		want[key(i)] = geom.Pt2(int64(i), int64(i%5))
	}
	if err := l.WriteSnapshotAt(1, len(want), maps.All(want)); err != nil {
		t.Fatal(err)
	}
	window := []wal.Op{{ID: key(0), Del: true}, {ID: key(1), P: geom.Pt2(500, 500)}, {ID: "late", P: geom.Pt2(9, 9)}}
	if _, err := l.AppendWindowAt(0, window); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	delete(want, key(0))
	want[key(1)], want["late"] = geom.Pt2(500, 500), geom.Pt2(9, 9)
	open := func(fold func(wal.Op)) error {
		l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, fold)
		if err == nil {
			err = l.Close()
		}
		return err
	}

	c := New(newSPaCH(), readOpts)
	defer c.Close()
	if err := Recover(c, open, nil); err != nil {
		t.Fatal(err)
	}
	verifyAgainstOracle(t, c, want, 301) // Validates too

	c.Set("pending", geom.Pt2(1, 1))
	folded := 0
	refused := func(fold func(wal.Op)) error {
		return open(func(o wal.Op) { folded++; fold(o) })
	}
	snap := filepath.Join(dir, "wal.snap")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0x40 // the last coordinate: the entry decodes, the checksum fails
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Recover(c, refused, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Recover over a snapshot that fails its checksum: %v", err)
	}
	if folded != 0 {
		t.Fatalf("a snapshot that fails its checksum handed the fold %d ops", folded)
	}
	broken := errors.New("stream broke")
	if err := Recover(c, func(fold func(wal.Op)) error {
		fold(wal.Op{ID: key(2), Del: true})
		fold(wal.Op{ID: "new", P: geom.Pt2(3, 3)})
		return broken
	}, nil); err != broken {
		t.Fatalf("Recover over a broken stream: %v", err)
	}
	if c.Pending() != 1 {
		t.Fatalf("a refused recovery left %d ops pending, want the 1 it found", c.Pending())
	}
	c.Flush()
	want["pending"] = geom.Pt2(1, 1)
	verifyAgainstOracle(t, c, want, 302)
}
