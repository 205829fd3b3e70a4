package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

func openT(t *testing.T, dir string, opts Options) (*Log, recovered) {
	t.Helper()
	l, rec, err := openMap(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func closeT(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// fold applies windows to a model map the way recovery should.
func fold(m map[string]geom.Point, ops []Op) {
	for _, o := range ops {
		if o.Del {
			delete(m, o.ID)
		} else {
			m[o.ID] = o.P
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{Fsync: FsyncAlways})
	if len(rec.Entries) != 0 || rec.Seq != 0 {
		t.Fatalf("fresh dir recovered %d entries, seq %d", len(rec.Entries), rec.Seq)
	}
	want := map[string]geom.Point{}
	windows := [][]Op{
		{{ID: "a", P: geom.Pt2(1, 2)}, {ID: "b", P: geom.Pt2(3, 4)}},
		{{ID: "a", P: geom.Pt2(5, 6)}, {ID: "c", P: geom.Pt3(7, 8, 9)}},
		{{ID: "b", Del: true}, {ID: "id with spaces and ünïcode", P: geom.Pt2(-10, 1<<40)}},
		{}, // an empty window must round-trip too
	}
	for _, w := range windows {
		if _, err := l.AppendWindowAt(0, w); err != nil {
			t.Fatalf("AppendWindowAt: %v", err)
		}
		fold(want, w)
	}
	if got := l.Stats(); got.Appends != 4 || got.Seq != 4 || got.Fsyncs < 4 {
		t.Fatalf("stats after 4 windows: %+v", got)
	}
	closeT(t, l)

	l2, rec2 := openT(t, dir, Options{})
	defer closeT(t, l2)
	if !maps.Equal(rec2.Entries, want) {
		t.Fatalf("recovered %v, want %v", rec2.Entries, want)
	}
	if rec2.Seq != 4 || rec2.Records != 4 || rec2.TruncatedBytes != 0 {
		t.Fatalf("recovery accounting: %+v", rec2)
	}
	// Appends continue the sequence.
	if _, err := l2.AppendWindowAt(0, windows[0]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := l2.Stats().Seq; got != 5 {
		t.Fatalf("seq after recovered append = %d, want 5", got)
	}
}

// TestTornTail chops every possible suffix off a valid log and checks
// that recovery keeps the longest valid record prefix, truncates the
// rest, and leaves the log append-clean.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	windows := [][]Op{
		{{ID: "a", P: geom.Pt2(1, 2)}},
		{{ID: "b", P: geom.Pt2(3, 4)}},
		{{ID: "a", Del: true}, {ID: "c", P: geom.Pt2(5, 6)}},
	}
	// Record the file size after each window so the expected surviving
	// prefix for any cut point is known exactly.
	bounds := []int64{magicLen}
	states := []map[string]geom.Point{{}}
	model := map[string]geom.Point{}
	for _, w := range windows {
		if _, err := l.AppendWindowAt(0, w); err != nil {
			t.Fatal(err)
		}
		fold(model, w)
		bounds = append(bounds, l.Stats().LogBytes)
		states = append(states, maps.Clone(model))
	}
	closeT(t, l)
	full, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[len(bounds)-1] {
		t.Fatalf("log is %d bytes, stats said %d", len(full), bounds[len(bounds)-1])
	}

	for cut := int(bounds[0]); cut < len(full); cut++ {
		// How many whole records survive a file of length cut?
		keep := 0
		for keep+1 < len(bounds) && bounds[keep+1] <= int64(cut) {
			keep++
		}
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openT(t, dir2, Options{Fsync: FsyncNever})
		if !maps.Equal(rec.Entries, states[keep]) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, rec.Entries, states[keep])
		}
		wantTrunc := int64(cut) - bounds[keep]
		if rec.TruncatedBytes != wantTrunc {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, wantTrunc)
		}
		// The tear is gone: appending and re-recovering must be clean.
		if _, err := l2.AppendWindowAt(0, []Op{{ID: "z", P: geom.Pt2(9, 9)}}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		closeT(t, l2)
		_, rec2 := openT(t, dir2, Options{Fsync: FsyncNever})
		if rec2.TruncatedBytes != 0 {
			t.Fatalf("cut %d: second recovery truncated again (%d bytes)", cut, rec2.TruncatedBytes)
		}
		if p, ok := rec2.Entries["z"]; !ok || p != geom.Pt2(9, 9) {
			t.Fatalf("cut %d: post-truncation append lost: %v", cut, rec2.Entries)
		}
	}
}

// TestCorruptMidRecord flips one byte inside the middle record. A valid
// record follows the damage, so this cannot be a torn append: Open must
// fail loudly (docs/durability.md's contract) rather than silently
// truncate away the journaled windows after the flip.
func TestCorruptMidRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	for i, w := range [][]Op{
		{{ID: "a", P: geom.Pt2(1, 1)}},
		{{ID: "b", P: geom.Pt2(2, 2)}},
		{{ID: "c", P: geom.Pt2(3, 3)}},
	} {
		if _, err := l.AppendWindowAt(0, w); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	firstEnd := magicLen + frameLen + len(EncodeWindowPayload(nil, 1, []Op{{ID: "a", P: geom.Pt2(1, 1)}}))
	closeT(t, l)
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[firstEnd+frameLen+2] ^= 0xff // inside record 2's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Fsync: FsyncNever}, nil); err == nil ||
		!strings.Contains(err.Error(), "corruption") {
		t.Fatalf("Open on mid-log corruption with a valid record after it: %v, want corruption error", err)
	}
	// The file must be left untouched for forensics — failing Open must
	// not truncate.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(b) {
		t.Fatalf("failed Open changed the log from %d to %d bytes", len(b), len(after))
	}
}

// TestCorruptFinalRecord flips one byte inside the last record: with
// nothing valid after it, the damage is indistinguishable from a torn
// append, so recovery keeps the prefix and truncates.
func TestCorruptFinalRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	for i, w := range [][]Op{
		{{ID: "a", P: geom.Pt2(1, 1)}},
		{{ID: "b", P: geom.Pt2(2, 2)}},
	} {
		if _, err := l.AppendWindowAt(0, w); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	closeT(t, l)
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // inside the final record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l2)
	want := map[string]geom.Point{"a": geom.Pt2(1, 1)}
	if !maps.Equal(rec.Entries, want) {
		t.Fatalf("recovered %v, want only the pre-corruption prefix %v", rec.Entries, want)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("final-record corruption not reported as truncation")
	}
}

// TestSeqRegressionTruncates hand-writes a log whose records go 5 then
// 3: replay must keep the first and cut the regression, never apply
// out-of-order history.
func TestSeqRegressionTruncates(t *testing.T) {
	dir := t.TempDir()
	frame := func(seq uint64, ops []Op) []byte {
		payload := EncodeWindowPayload(nil, seq, ops)
		rec := make([]byte, frameLen, frameLen+len(payload))
		rec = append(rec, payload...)
		putFrame(rec[:frameLen], rec[frameLen:])
		return rec
	}
	var b []byte
	b = append(b, logMagic...)
	b = append(b, frame(5, []Op{{ID: "a", P: geom.Pt2(1, 1)}})...)
	b = append(b, frame(3, []Op{{ID: "b", P: geom.Pt2(2, 2)}})...)
	if err := os.WriteFile(filepath.Join(dir, logName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l)
	if _, ok := rec.Entries["b"]; ok {
		t.Fatal("out-of-order record was replayed")
	}
	if rec.Seq != 5 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery: %+v", rec)
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	model := map[string]geom.Point{}
	w1 := []Op{{ID: "a", P: geom.Pt2(1, 2)}, {ID: "b", P: geom.Pt2(3, 4)}}
	w2 := []Op{{ID: "b", Del: true}, {ID: "c", P: geom.Pt2(5, 6)}}
	if _, err := l.AppendWindowAt(0, w1); err != nil {
		t.Fatal(err)
	}
	fold(model, w1)
	preBytes := l.Stats().LogBytes
	if err := l.WriteSnapshotAt(l.LastSeq(), len(model), maps.All(model)); err != nil {
		t.Fatalf("WriteSnapshotAt: %v", err)
	}
	st := l.Stats()
	if st.LogBytes != magicLen || st.SnapshotSeq != 1 || st.Snapshots != 1 {
		t.Fatalf("after snapshot: %+v (pre-snapshot log was %d bytes)", st, preBytes)
	}
	if got := l.AppendsSinceSnapshot(); got != 0 {
		t.Fatalf("AppendsSinceSnapshot = %d after snapshot", got)
	}
	if _, err := l.AppendWindowAt(0, w2); err != nil {
		t.Fatal(err)
	}
	fold(model, w2)
	closeT(t, l)

	_, rec := openT(t, dir, Options{Fsync: FsyncNever})
	if !maps.Equal(rec.Entries, model) {
		t.Fatalf("recovered %v, want %v", rec.Entries, model)
	}
	if rec.SnapshotSeq != 1 || rec.SnapshotObjects != 2 || rec.Seq != 2 || rec.Records != 1 {
		t.Fatalf("recovery accounting: %+v", rec)
	}
}

// TestSnapshotStreamsThroughItsBuffer: recovery decodes a snapshot in
// place in a 64 KiB read buffer, so entries straddle its refills, and an
// ID longer than the buffer takes the copying path. Every one must come
// back as written, over a snapshot and a log that both carry them.
func TestSnapshotStreamsThroughItsBuffer(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	model := map[string]geom.Point{}
	for i := 0; i < 20_000; i++ {
		model[fmt.Sprintf("obj-%d", i)] = geom.Pt3(int64(i), -int64(i)<<20, int64(i%7))
	}
	for _, n := range []int{ioBuf - maxEntryTail - 3, ioBuf - 1, ioBuf, 2*ioBuf + 5} {
		model[strings.Repeat("L", n)] = geom.Pt2(int64(n), 1)
	}
	snapped := len(model)
	if err := l.WriteSnapshotAt(1, snapped, maps.All(model)); err != nil {
		t.Fatal(err)
	}
	w := []Op{{ID: strings.Repeat("M", 3*ioBuf), P: geom.Pt2(3, 3)}, {ID: "obj-7", Del: true}}
	if _, err := l.AppendWindowAt(0, w); err != nil {
		t.Fatal(err)
	}
	fold(model, w)
	closeT(t, l)
	l2, rec := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l2)
	if !maps.Equal(rec.Entries, model) {
		t.Fatalf("recovered %d entries, want the %d written", len(rec.Entries), len(model))
	}
	if rec.SnapshotObjects != snapped || rec.Records != 1 {
		t.Fatalf("recovery accounting: %+v", rec.Recovery)
	}
}

// TestSnapshotLogOverlap simulates a crash between the snapshot rename
// and the log rotation: the log still holds records at or below the
// snapshot seq. Replay must skip them (they are already folded in) and
// apply only the genuine tail.
func TestSnapshotLogOverlap(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	model := map[string]geom.Point{}
	w1 := []Op{{ID: "a", P: geom.Pt2(1, 1)}}
	w2 := []Op{{ID: "a", P: geom.Pt2(2, 2)}, {ID: "b", P: geom.Pt2(3, 3)}}
	for _, w := range [][]Op{w1, w2} {
		if _, err := l.AppendWindowAt(0, w); err != nil {
			t.Fatal(err)
		}
		fold(model, w)
	}
	logPath := filepath.Join(dir, logName)
	preRotation, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshotAt(l.LastSeq(), len(model), maps.All(model)); err != nil {
		t.Fatal(err)
	}
	w3 := []Op{{ID: "c", P: geom.Pt2(4, 4)}}
	if _, err := l.AppendWindowAt(0, w3); err != nil {
		t.Fatal(err)
	}
	fold(model, w3)
	postRotation, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	closeT(t, l)
	// Reconstruct the crash state: old log (seqs 1-2, both <= the
	// snapshot's seq 2) plus the post-rotation tail record (seq 3).
	combined := append(append([]byte{}, preRotation...), postRotation[magicLen:]...)
	if err := os.WriteFile(logPath, combined, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l2)
	if !maps.Equal(rec.Entries, model) {
		t.Fatalf("recovered %v, want %v", rec.Entries, model)
	}
	if rec.Records != 3 || rec.Seq != 3 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery accounting: %+v", rec)
	}
}

func TestBadHeaders(t *testing.T) {
	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), []byte("NOTAWAL\nxxxx"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, nil); err == nil {
			t.Fatal("Open accepted a foreign log file")
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, nil); err == nil {
			t.Fatal("Open accepted a corrupt snapshot")
		}
	})
	t.Run("snapshot-crc", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{Fsync: FsyncNever})
		m := map[string]geom.Point{"a": geom.Pt2(1, 2)}
		if _, err := l.AppendWindowAt(0, []Op{{ID: "a", P: geom.Pt2(1, 2)}}); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshotAt(l.LastSeq(), 1, maps.All(m)); err != nil {
			t.Fatal(err)
		}
		closeT(t, l)
		path := filepath.Join(dir, snapName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[magicLen+1] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		// A snapshot is rename-atomic, so corruption is bit rot: hard
		// error, never a silent empty dataset — and the CRC is checked
		// before any entry reaches the fold.
		folded := 0
		if _, _, err := Open(dir, Options{}, func(Op) { folded++ }); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Open on rotted snapshot: %v", err)
		}
		if folded != 0 {
			t.Fatalf("Open on rotted snapshot handed the fold %d ops, want none", folded)
		}
	})
}

func TestFsyncInterval(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncInterval, Interval: time.Millisecond})
	if _, err := l.AppendWindowAt(0, []Op{{ID: "a", P: geom.Pt2(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	closeT(t, l)
	_, rec := openT(t, dir, Options{})
	if len(rec.Entries) != 1 {
		t.Fatalf("recovered %v", rec.Entries)
	}
}

func TestClosed(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	closeT(t, l)
	closeT(t, l) // idempotent
	if _, err := l.AppendWindowAt(0, nil); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.WriteSnapshotAt(l.LastSeq(), 0, maps.All(map[string]geom.Point{})); err != ErrClosed {
		t.Fatalf("snapshot after close: %v", err)
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in     string
		policy FsyncPolicy
		iv     time.Duration
		ok     bool
	}{
		{"always", FsyncAlways, 0, true},
		{"never", FsyncNever, 0, true},
		{"100ms", FsyncInterval, 100 * time.Millisecond, true},
		{"2s", FsyncInterval, 2 * time.Second, true},
		{"0s", 0, 0, false},
		{"-1s", 0, 0, false},
		{"sometimes", 0, 0, false},
		{"", 0, 0, false},
	} {
		p, iv, err := ParseFsync(tc.in)
		if (err == nil) != tc.ok || (tc.ok && (p != tc.policy || iv != tc.iv)) {
			t.Errorf("ParseFsync(%q) = %v, %v, %v; want %v, %v, ok=%t", tc.in, p, iv, err, tc.policy, tc.iv, tc.ok)
		}
	}
}

// TestOversizedWindowFailStop pins that a window too large to journal
// poisons the Log like any other append failure: its ops can never
// reach the log, so later appends must be refused — otherwise seqs are
// reassigned over the gap and replay cannot detect the missing window.
func TestOversizedWindowFailStop(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l)
	l.maxRecord = 32
	big := []Op{{ID: strings.Repeat("x", 64), P: geom.Pt2(1, 1)}}
	if _, err := l.AppendWindowAt(0, big); err == nil {
		t.Fatal("oversized window accepted")
	}
	if _, err := l.AppendWindowAt(0, []Op{{ID: "a", P: geom.Pt2(1, 1)}}); err == nil {
		t.Fatal("append after an unjournalable window succeeded: silent seq gap")
	}
	if got := l.Stats().Errors; got == 0 {
		t.Fatal("oversized window not counted in Errors")
	}
}

// TestWALAppendZeroAllocWarm pins the acceptance criterion that the WAL
// adds no per-op allocations beyond its (persistent) record encode
// buffer: a warm AppendWindowAt allocates nothing.
func TestWALAppendZeroAllocWarm(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncNever})
	defer closeT(t, l)
	ops := []Op{
		{ID: "obj-0000001", P: geom.Pt2(123456, 789012)},
		{ID: "obj-0000002", P: geom.Pt2(345678, 901234)},
		{ID: "obj-0000003", Del: true},
	}
	if _, err := l.AppendWindowAt(0, ops); err != nil { // warm the encode buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := l.AppendWindowAt(0, ops); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm AppendWindowAt allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkAppendWindowAt(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{Fsync: policy}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			ops := make([]Op, 64)
			for i := range ops {
				ops[i] = Op{ID: "obj-0000000", P: geom.Pt2(int64(i)*1000, int64(i)*2000)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendWindowAt(0, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLastSeq covers the replication resume handshake's source of
// truth: zero on a log that has never held a window, advancing with
// appends, and surviving recovery.
func TestLastSeq(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if got := l.LastSeq(); got != 0 {
		t.Fatalf("fresh LastSeq = %d, want 0", got)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.AppendWindowAt(0, []Op{{ID: "a", P: geom.Pt2(int64(i), 0)}}); err != nil {
			t.Fatal(err)
		}
		if got := l.LastSeq(); got != uint64(i) {
			t.Fatalf("LastSeq after %d appends = %d", i, got)
		}
	}
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if l2.LastSeq() != 3 || rec.Seq != 3 {
		t.Fatalf("recovered LastSeq = %d (rec.Seq %d), want 3", l2.LastSeq(), rec.Seq)
	}
}

// TestAppendWindowAt checks the follower journaling primitive: windows
// land under the leader's sequence numbers, gaps are allowed (the
// leader's log has them after its own snapshots), regressions are not,
// and recovery resumes from the highest journaled seq.
func TestAppendWindowAt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if _, err := l.AppendWindowAt(7, []Op{{ID: "a", P: geom.Pt2(1, 2)}}); err != nil {
		t.Fatalf("AppendWindowAt(7): %v", err)
	}
	if _, err := l.AppendWindowAt(12, []Op{{ID: "b", P: geom.Pt2(3, 4)}}); err != nil {
		t.Fatalf("AppendWindowAt(12) across a gap: %v", err)
	}
	for _, seq := range []uint64{12, 5} {
		if _, err := l.AppendWindowAt(seq, nil); err == nil {
			t.Fatalf("AppendWindowAt(%d) after seq 12 succeeded", seq)
		}
	}
	if got := l.LastSeq(); got != 12 {
		t.Fatalf("LastSeq = %d, want 12", got)
	}
	// AppendWindowAt(0, …) ("the next one") continues from the
	// imposed seq, and hands back exactly the payload it framed — what a
	// leader ships to its followers.
	c := []Op{{ID: "c", P: geom.Pt2(5, 6)}}
	payload, err := l.AppendWindowAt(0, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := EncodeWindowPayload(nil, 13, c); !bytes.Equal(payload, want) {
		t.Fatalf("AppendWindowAt(0) returned payload %x, want the seq-13 record payload %x", payload, want)
	}
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if rec.Seq != 13 || rec.Records != 3 {
		t.Fatalf("recovery after seq-addressed appends: %+v", rec)
	}
	want := map[string]geom.Point{"a": geom.Pt2(1, 2), "b": geom.Pt2(3, 4), "c": geom.Pt2(5, 6)}
	if !maps.Equal(rec.Entries, want) {
		t.Fatalf("recovered %v, want %v", rec.Entries, want)
	}
}

// TestWriteSnapshotAt covers follower bootstrap: installing a
// leader-provided snapshot may move the local sequence backwards
// (re-bootstrapping from a wiped leader), all the way to zero for an
// empty leader — no snapshot, empty log — which must succeed and leave
// the follower resuming from seq 0.
func TestWriteSnapshotAt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.AppendWindowAt(0, []Op{{ID: "old", P: geom.Pt2(int64(i), 0)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Regress to a lower seq with different state, as a re-bootstrap does.
	state := map[string]geom.Point{"x": geom.Pt2(9, 9)}
	if err := l.WriteSnapshotAt(2, len(state), maps.All(state)); err != nil {
		t.Fatalf("WriteSnapshotAt(2): %v", err)
	}
	if got := l.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after regression = %d, want 2", got)
	}
	if _, err := l.AppendWindowAt(3, []Op{{ID: "y", P: geom.Pt2(1, 1)}}); err != nil {
		t.Fatalf("AppendWindowAt(3) after regression: %v", err)
	}
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	if rec.Seq != 3 || rec.SnapshotSeq != 2 || rec.Records != 1 {
		t.Fatalf("recovery after regression: %+v", rec)
	}
	want := map[string]geom.Point{"x": geom.Pt2(9, 9), "y": geom.Pt2(1, 1)}
	if !maps.Equal(rec.Entries, want) {
		t.Fatalf("recovered %v, want %v", rec.Entries, want)
	}

	// Empty-leader bootstrap: snapshot of nothing at seq 0.
	if err := l2.WriteSnapshotAt(0, 0, maps.All(map[string]geom.Point{})); err != nil {
		t.Fatalf("WriteSnapshotAt(0, empty): %v", err)
	}
	if got := l2.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after empty bootstrap = %d, want 0", got)
	}
	closeT(t, l2)
	l3, rec3 := openT(t, dir, Options{})
	defer closeT(t, l3)
	if len(rec3.Entries) != 0 || rec3.Seq != 0 {
		t.Fatalf("recovery after empty bootstrap: %+v", rec3)
	}
	if _, err := l3.AppendWindowAt(1, []Op{{ID: "z", P: geom.Pt2(2, 2)}}); err != nil {
		t.Fatalf("AppendWindowAt(1) from empty bootstrap: %v", err)
	}
}

// TestWindowPayloadRoundTrip pins the exported payload codec to the
// on-disk record format the replication stream reuses.
func TestWindowPayloadRoundTrip(t *testing.T) {
	ops := []Op{
		{ID: "a", P: geom.Pt2(1, -2)},
		{ID: "b", Del: true},
	}
	payload := EncodeWindowPayload(nil, 42, ops)
	seq, got, err := DecodeWindowPayload(payload, nil)
	if err != nil {
		t.Fatalf("DecodeWindowPayload: %v", err)
	}
	if seq != 42 || len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("round trip: seq %d ops %v", seq, got)
	}
	if _, _, err := DecodeWindowPayload(payload[:len(payload)-1], nil); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// TestTermPersistence proves SetTerm survives a snapshot + restart (the
// promotion durability contract) and that a v1-era snapshot without a
// term recovers as term 0.
func TestTermPersistence(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	if got := l.Term(); got != 0 {
		t.Fatalf("fresh log term = %d, want 0", got)
	}
	if _, err := l.AppendWindowAt(0, []Op{{ID: "a", P: geom.Pt2(1, 2)}}); err != nil {
		t.Fatalf("AppendWindowAt: %v", err)
	}
	l.SetTerm(7)
	state := map[string]geom.Point{"a": geom.Pt2(1, 2)}
	if err := l.WriteSnapshotAt(l.LastSeq(), len(state), maps.All(state)); err != nil {
		t.Fatalf("WriteSnapshotAt: %v", err)
	}
	// Windows appended after the snapshot must not disturb the term.
	if _, err := l.AppendWindowAt(0, []Op{{ID: "b", P: geom.Pt2(3, 4)}}); err != nil {
		t.Fatalf("AppendWindowAt: %v", err)
	}
	if got := l.Stats().Term; got != 7 {
		t.Fatalf("Stats().Term = %d, want 7", got)
	}
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	if rec.Term != 7 || l2.Term() != 7 {
		t.Fatalf("recovered term %d / %d, want 7", rec.Term, l2.Term())
	}
	if len(rec.Entries) != 2 || rec.Seq != 2 {
		t.Fatalf("recovery state: %+v", rec)
	}
	closeT(t, l2)
}

// TestV1SnapshotRejected builds a v1 snapshot by hand (the term-less
// format nothing writes any more) next to a log holding one later window,
// and checks that Open refuses the directory with the distinct
// unsupported-version error — not the foreign-file error, and never by
// treating anything as a tear: both files must survive byte for byte, so
// the operator can still recover them with a build that reads v1.
func TestV1SnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if _, err := l.AppendWindowAt(0, []Op{{ID: "b", P: geom.Pt2(3, 4)}}); err != nil {
		t.Fatalf("AppendWindowAt: %v", err)
	}
	closeT(t, l)
	var body []byte
	body = binary.AppendUvarint(body, 0) // seq
	body = binary.AppendUvarint(body, 1) // count
	body = appendID(body, "a")
	for d := 0; d < geom.MaxDims; d++ {
		body = binary.AppendVarint(body, int64(d+1))
	}
	snap := append([]byte("PSISNP1\n"), body...)
	snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(body))
	snapPath, logPath := filepath.Join(dir, "wal.snap"), filepath.Join(dir, "wal.log")
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{}, nil)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("Open over a v1 snapshot: err = %v, want ErrSnapshotVersion", err)
	}
	if !strings.Contains(err.Error(), `"PSISNP1"`) {
		t.Fatalf("error does not name the version found: %v", err)
	}
	if got, _ := os.ReadFile(snapPath); !bytes.Equal(got, snap) {
		t.Fatal("rejected snapshot was modified")
	}
	if got, _ := os.ReadFile(logPath); !bytes.Equal(got, logBefore) {
		t.Fatal("log was modified while rejecting the snapshot")
	}
}
