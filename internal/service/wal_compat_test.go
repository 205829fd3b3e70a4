package service

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/wal"
)

// walParentScript is the op sequence behind testdata/wal_parent: under
// fsync=always every acknowledged SET/DEL is its own one-op window, so
// the record bytes it produces are deterministic. snapshot is called once
// mid-way; the directory is then left as a kill -9 leaves it.
func walParentScript(do func(line string), snapshot func()) {
	for i := 0; i < 12; i++ {
		do(fmt.Sprintf(`{"op":"SET","id":"obj-%d","p":[%d,%d]}`, i, i*10, i*7))
	}
	do(`{"op":"DEL","id":"obj-3"}`)
	snapshot()
	for i := 8; i < 16; i++ {
		do(fmt.Sprintf(`{"op":"SET","id":"obj-%d","p":[%d,%d]}`, i, 500+i, 900-i))
	}
	do(`{"op":"DEL","id":"obj-0"}`)
	do(`{"op":"DEL","id":"never-set"}`)
	do(`{"op":"SET","id":"late \"quoted\" id","p":[1,999]}`)
}

// walParentState is the state the script leaves behind.
func walParentState() map[string]geom.Point {
	want := make(map[string]geom.Point)
	for _, i := range []int{1, 2, 4, 5, 6, 7} {
		want[fmt.Sprintf("obj-%d", i)] = geom.Pt2(int64(i*10), int64(i*7))
	}
	for i := 8; i < 16; i++ {
		want[fmt.Sprintf("obj-%d", i)] = geom.Pt2(int64(500+i), int64(900-i))
	}
	want[`late "quoted" id`] = geom.Pt2(1, 999)
	return want
}

// TestWALParentDirectory is the disk-format compatibility proof in both
// directions. Forward: a WAL directory written by this PR's parent
// commit (checked in under testdata/wal_parent) recovers — through Load —
// to exactly the state its script produced, at the same sequence.
// Backward: the same script run on this code writes a wal.log that is
// byte-identical to the parent's (and a snapshot of the same length that
// recovers to the same state), so the parent reads what this code writes
// exactly as it reads its own files.
func TestWALParentDirectory(t *testing.T) {
	recoverDir := func(t *testing.T, dir string) {
		t.Helper()
		s, err := NewDurable(newTestIndex(), Options{WALDir: dir, WALFsync: wal.FsyncAlways, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownT(t, s)
		if rec := s.WALRecovered(); rec.Objects != 15 || rec.Records != 11 || rec.TruncatedBytes != 0 {
			t.Fatalf("recovery summary %+v, want 15 objects from 11 replayed records", rec)
		}
		if seq := s.wal.LastSeq(); seq != 24 {
			t.Fatalf("recovered at seq %d, want 24", seq)
		}
		got := make(map[string]geom.Point)
		for _, e := range s.coll.WithinIDs(testUniverse()) {
			got[e.ID] = e.Point
		}
		if want := walParentState(); !maps.Equal(got, want) {
			t.Fatalf("recovered state %v\nwant %v", got, want)
		}
		if err := s.coll.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	copyDir := func(t *testing.T, from string) string {
		t.Helper()
		to := t.TempDir()
		for _, name := range []string{"wal.log", "wal.snap"} {
			b, err := os.ReadFile(filepath.Join(from, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return to
	}
	parent := filepath.Join("testdata", "wal_parent")

	t.Run("parent-written recovers here", func(t *testing.T) {
		recoverDir(t, copyDir(t, parent))
	})

	t.Run("written here is what the parent writes", func(t *testing.T) {
		dir := t.TempDir()
		s, err := NewDurable(newTestIndex(), Options{WALDir: dir, WALFsync: wal.FsyncAlways, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		lc := s.NewLineConn()
		walParentScript(func(line string) {
			if resp := lc.Serve([]byte(line)); string(resp) != "{\"ok\":true}\n" {
				t.Fatalf("%s -> %s", line, resp)
			}
		}, func() {
			if err := s.SnapshotWAL(); err != nil {
				t.Fatal(err)
			}
		})
		crashed := copyDir(t, dir) // as kill -9 would leave it
		shutdownT(t, s)
		for _, name := range []string{"wal.log", "wal.snap"} {
			want, err := os.ReadFile(filepath.Join(parent, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(crashed, name))
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot lists a map in iteration order: same entries,
			// same length, not the same bytes.
			if name == "wal.log" && !bytes.Equal(got, want) {
				t.Fatalf("wal.log written here differs from the parent's:\n got %x\nwant %x", got, want)
			}
			if len(got) != len(want) {
				t.Fatalf("%s is %d bytes here, %d from the parent", name, len(got), len(want))
			}
		}
		recoverDir(t, crashed)
	})
}
