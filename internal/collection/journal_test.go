package collection

import (
	"encoding/binary"
	"errors"
	"iter"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// intCodec is a test wal.Codec for integer IDs (zigzag varint), so the
// journal alloc guard can reuse the int-keyed Collection fixtures.
type intCodec struct{}

func (intCodec) AppendID(dst []byte, id int) []byte {
	return binary.AppendVarint(dst, int64(id))
}

func (intCodec) DecodeID(src []byte) (int, int, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, 0, errors.New("intCodec: bad varint")
	}
	return int(v), n, nil
}

// TestJournalReceivesNettedWindow pins the SetJournal contract: the hook
// sees exactly the netted window — at most one op per ID, last write
// wins, removals flagged Del — before the flush applies it, and sees
// nothing for flushes with no pending ops.
func TestJournalReceivesNettedWindow(t *testing.T) {
	c := New[string](core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	var calls int
	var got map[string]wal.Op[string]
	c.SetJournal(func(seq uint64, ops []wal.Op[string]) error {
		if seq != 0 {
			t.Errorf("a Flush journaled under seq %d, want 0 (the journal assigns the next one)", seq)
		}
		calls++
		got = make(map[string]wal.Op[string], len(ops))
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
	c.SetJournal(func(uint64, []wal.Op[string]) error { return errors.New("disk on fire") })
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
	modes := map[string]Options{
		"locked":   {MaxBatch: 1 << 20},
		"snapshot": {MaxBatch: 1 << 20, Snapshot: true},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			c := New[string](newSPaCH(), opts)
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
// zero, for same-position windows and for moves.
func TestJournalFlushZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 512
	posA := make([]geom.Point, n)
	posB := make([]geom.Point, n)
	for i := range posA {
		posA[i] = geom.Pt2(int64(i)*17, int64(i)*29)
		posB[i] = geom.Pt2(int64(i)*17+5, int64(i)*29+3)
	}
	newJournaled := func(t *testing.T) *Collection[int] {
		t.Helper()
		l, _, err := wal.Open[int](t.TempDir(), intCodec{}, wal.Options{Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		c := New[int](core.NewNull(2), Options{MaxBatch: 1 << 20})
		c.SetJournal(func(seq uint64, ops []wal.Op[int]) error {
			_, err := l.AppendWindowAt(seq, ops)
			return err
		})
		t.Cleanup(c.Close)
		return c
	}
	t.Run("same-position windows", func(t *testing.T) {
		c := newJournaled(t)
		window := func() {
			for i, p := range posA {
				c.Set(i, p)
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
			c.Set(i, p)
		}
		c.Flush()
		cur, next := posA, posB
		window := func() {
			for i, p := range next {
				c.Set(i, p)
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
