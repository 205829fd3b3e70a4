package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/wal"
	"repro/internal/workload"
)

// startDurable runs a Server with a WAL in dir. The background flusher
// stays off so tests control flush/journal timing; fsync=always makes
// SET/DEL acks flush anyway.
func startDurable(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	opts.WALDir = dir
	if opts.FlushInterval == 0 {
		opts.FlushInterval = -1
	}
	s, err := NewDurable(newTestIndex(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func shutdownT(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWALRestartDurability is the in-process restart oracle: every
// acknowledged write before a graceful shutdown is visible after a
// restart over the same WAL directory, including deletes, and the
// shutdown snapshot leaves nothing to replay.
func TestWALRestartDurability(t *testing.T) {
	dir := t.TempDir()

	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c := dialT(t, s)
	if err := c.Set("keep", []int64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("moved", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("moved", []int64{30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("dead", []int64{5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Del("dead"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil {
		t.Fatal("stats missing wal block")
	}
	if !st.WAL.DurableAcks || st.WAL.Policy != "always" {
		t.Fatalf("wal stats = %+v, want durable acks under always", st.WAL)
	}
	if st.WAL.Seq == 0 || st.WAL.Appends == 0 || st.WAL.Fsyncs == 0 {
		t.Fatalf("wal stats show no journaling: %+v", st.WAL)
	}
	c.Close()
	shutdownT(t, s)

	s2 := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	rec := s2.WALRecovered()
	if rec.Objects != 2 {
		t.Fatalf("recovered %d objects, want 2 (keep, moved)", rec.Objects)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown left a torn tail: %d bytes truncated", rec.TruncatedBytes)
	}
	// The shutdown snapshot folded everything: nothing to replay.
	if rec.Records != 0 {
		t.Fatalf("clean shutdown left %d log records to replay, want 0", rec.Records)
	}
	c2 := dialT(t, s2)
	if p, ok, err := c2.Get("keep"); err != nil || !ok || p[0] != 10 || p[1] != 20 {
		t.Fatalf("Get(keep) = %v, %t, %v", p, ok, err)
	}
	if p, ok, err := c2.Get("moved"); err != nil || !ok || p[0] != 30 || p[1] != 40 {
		t.Fatalf("Get(moved) = %v, %t, %v; want last write", p, ok, err)
	}
	if _, ok, err := c2.Get("dead"); err != nil || ok {
		t.Fatalf("deleted object resurrected: found=%t err=%v", ok, err)
	}
	// Recovered state serves queries, not just GETs.
	hits, err := c2.Within([]int64{0, 0}, []int64{100, 100})
	if err != nil || len(hits) != 2 {
		t.Fatalf("Within over recovered state = %v, %v; want 2 hits", hits, err)
	}
}

// TestWALTornTailRestart corrupts the log tail between two server
// generations the way a crash mid-append would, and asserts the next
// boot truncates the tear and serves everything before it.
func TestWALTornTailRestart(t *testing.T) {
	dir := t.TempDir()

	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways, WALSnapshotInterval: time.Hour})
	c := dialT(t, s)
	for i, id := range []string{"a", "b", "c"} {
		if err := c.Set(id, []int64{int64(i + 1), int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// Tear off the log's final bytes without the shutdown snapshot
	// (which would truncate the log): simulate the crash by killing the
	// snapshot before it happens — drop the WAL dir's log tail directly.
	path := filepath.Join(dir, "wal.log")
	pre, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shutdownT(t, s)

	// Rewind the log to its pre-shutdown content minus 3 bytes (a torn
	// final record) and remove the shutdown snapshot so recovery must
	// replay the log.
	if err := os.WriteFile(path, pre[:len(pre)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "wal.snap")); err != nil {
		t.Fatal(err)
	}

	s2 := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	rec := s2.WALRecovered()
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if rec.Objects != 2 || rec.Records != 2 {
		t.Fatalf("recovered %d objects from %d records, want 2 from 2 (c torn off)", rec.Objects, rec.Records)
	}
	c2 := dialT(t, s2)
	for i, id := range []string{"a", "b"} {
		if p, ok, err := c2.Get(id); err != nil || !ok || p[0] != int64(i+1) {
			t.Fatalf("Get(%s) = %v, %t, %v", id, p, ok, err)
		}
	}
	if _, ok, _ := c2.Get("c"); ok {
		t.Fatal("write after the tear survived — replayed garbage")
	}
	// The truncated log accepts new writes and they survive the next
	// generation.
	if err := c2.Set("c", []int64{9, 9}); err != nil {
		t.Fatal(err)
	}
	shutdownT(t, s2)
	s3 := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c3 := dialT(t, s3)
	if p, ok, err := c3.Get("c"); err != nil || !ok || p[0] != 9 {
		t.Fatalf("post-recovery write lost: %v, %t, %v", p, ok, err)
	}
}

// TestWALSnapshotTruncatesLog drives enough windows to grow the log,
// snapshots, and asserts the log was rotated and a restart replays the
// snapshot rather than records.
func TestWALSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, Options{WALFsync: wal.FsyncNever, WALSnapshotInterval: time.Hour})
	c := dialT(t, s)
	for i := range 10 {
		if err := c.Set("id", []int64{int64(i), 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SnapshotWAL(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL.Snapshots != 1 || st.WAL.SnapshotSeq != st.WAL.Seq {
		t.Fatalf("snapshot not taken or stale: %+v", st.WAL)
	}
	shutdownT(t, s)

	s2 := startDurable(t, dir, Options{WALFsync: wal.FsyncNever})
	rec := s2.WALRecovered()
	if rec.Objects != 1 || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want 1 object from snapshot, 0 replayed records", rec)
	}
	c2 := dialT(t, s2)
	if p, ok, err := c2.Get("id"); err != nil || !ok || p[0] != 9 {
		t.Fatalf("Get(id) = %v, %t, %v; want last write 9", p, ok, err)
	}
}

// TestWALFailureRefusesAcks breaks the log out from under a durable
// server and asserts the contract: the first failed journal append
// flips the server unhealthy, SET acks turn into unavailable errors,
// and the Fatal channel fires.
func TestWALFailureRefusesAcks(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c := dialT(t, s)
	if err := c.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Close the log behind the server's back: the next journal append
	// returns ErrClosed, exactly like a dead disk would error.
	s.wal.Close()
	err := c.Set("b", []int64{2, 2})
	if err == nil {
		t.Fatal("SET acknowledged after the WAL failed")
	}
	resp, ok := err.(*ServerError)
	if !ok || resp.Code != CodeUnavailable {
		t.Fatalf("error = %v, want code %q", err, CodeUnavailable)
	}
	select {
	case ferr := <-s.Fatal():
		if ferr == nil {
			t.Fatal("nil fatal error")
		}
	case <-time.After(time.Second):
		t.Fatal("Fatal channel never fired")
	}
	st := s.Stats()
	if !st.WAL.Failed || st.WAL.JournalErrors == 0 {
		t.Fatalf("stats do not show the failure: %+v", st.WAL)
	}
}

// TestNewDurableRejectsCorruptSnapshot pins the hard-error path: a
// snapshot that fails its checksum must fail construction loudly, not
// boot an empty server over a directory full of data.
func TestNewDurableRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c := dialT(t, s)
	if err := c.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	shutdownT(t, s) // writes the shutdown snapshot

	path := filepath.Join(dir, "wal.snap")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(newTestIndex(), Options{WALDir: dir, FlushInterval: -1}); err == nil {
		t.Fatal("NewDurable accepted a corrupt snapshot")
	}
}

// TestRecoveryAllocationBudget bounds what NewDurable allocates on the
// heap per recovered object, at 10⁵ objects recovered from a log and then
// from a snapshot: at most 128 B and a quarter of an allocation. Recovery
// folds the WAL's ops, IDs viewed in its read buffers, straight into a
// fresh slot table whose arrays are mapped, so what remains is the ID
// arena, the widened points and the Build; a map of the dataset, or a
// string per replayed ID, costs twice the bytes and an allocation per
// object (246–260 B and 1.22 allocations when recovery folded into a map
// first).
func TestRecoveryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds keep the slot table's arrays on the heap")
	}
	const n, window = 100_000, 1000
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.Generate(workload.Uniform, n, 2, testSide, 7)
	ops := make([]wal.Op, 0, window)
	for i, p := range pts {
		ops = append(ops, wal.Op{ID: fmt.Sprintf("veh-%07d", i), P: p})
		if len(ops) == window {
			if _, err := l.AppendWindowAt(0, ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"log", "snapshot"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := NewDurable(newTestIndex(), Options{WALDir: dir, WALFsync: wal.FsyncNever, FlushInterval: -1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		rec := s.WALRecovered()
		if rec.Objects != n || (from == "log") != (rec.Records == n/window) {
			t.Fatalf("%s: recovered %+v, want %d objects", from, rec, n)
		}
		perObj := float64(after.TotalAlloc-before.TotalAlloc) / n
		allocs := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("recovery from the %s: %.1f B and %.3f allocations per object, %.1f ms", from, perObj, allocs, rec.RecoverMs)
		if perObj > 128 || allocs > 0.25 {
			t.Errorf("recovery from the %s allocates %.1f B and %.3f allocations per object, budget 128 B and 0.25", from, perObj, allocs)
		}
		shutdownT(t, s) // the closing snapshot is the next round's input
	}
}

// TestRecoveryVetsTheFinalState: recovery checks the universe on the state
// the log folds to, not on each op. A point outside it that a later op
// moved back in recovers; a final state outside it fails psid's recovery
// with the point named, and loads nothing: the Collection keeps what it
// held, in its table and in its index.
func TestRecoveryVetsTheFinalState(t *testing.T) {
	writeLog := func(windows ...[]wal.Op) string {
		t.Helper()
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			if _, err := l.AppendWindowAt(0, w); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	past := geom.Pt2(5_000_000_000, 1) // past the stored int32 range
	beyond := geom.Pt2(testSide+5, 1)  // stored, but outside the universe
	healed := writeLog(
		[]wal.Op{{ID: "a", P: past}, {ID: "b", P: beyond}, {ID: "c", P: geom.Pt2(3, 3)}},
		[]wal.Op{{ID: "a", P: geom.Pt2(1, 1)}, {ID: "b", Del: true}},
	)
	s := startDurable(t, healed, Options{WALFsync: wal.FsyncNever})
	if p, ok := s.coll.Get("a"); !ok || p != geom.Pt2(1, 1) || s.coll.Len() != 2 || s.WALRecovered().Objects != 2 {
		t.Fatalf("healed log: a at %v (%t), %d objects; want a at [1 1] and c", p, ok, s.coll.Len())
	}
	shutdownT(t, s)

	for _, leave := range []geom.Point{past, beyond} {
		dir := writeLog(
			[]wal.Op{{ID: "x", P: geom.Pt2(7, 7)}, {ID: "y", P: geom.Pt2(8, 8)}},
			[]wal.Op{{ID: "y", P: leave}},
		)
		// psid's recovery path on a Collection that already holds a state.
		s := New(newTestIndex(), Options{FlushInterval: -1})
		s.coll.Set("held", geom.Pt2(4, 4))
		s.coll.Flush()
		s.opts.WALDir = dir
		want := fmt.Sprintf(`"y": point %v outside the universe %v`, leave[:2], testUniverse())
		if err := s.openWAL(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("recovery of a final state at %v: %v, want an error containing %s", leave, err, want)
		}
		hits := s.coll.WithinIDs(testUniverse())
		if s.coll.Len() != 1 || len(hits) != 1 || hits[0].ID != "held" || s.wal != nil {
			t.Fatalf("refused recovery loaded something: %d objects, index holds %v", s.coll.Len(), hits)
		}
		if err := s.coll.Validate(); err != nil {
			t.Fatal(err)
		}
		shutdownT(t, s)
	}
}
