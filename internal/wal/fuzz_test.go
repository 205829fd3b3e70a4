package wal

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzWALReplay throws arbitrary bytes at the log decoder as a wal.log
// file. The contract under attack: Open never panics; it streams its fold
// exactly the ops of oracleOps, the whole-file decoder, op for op, whether
// it then succeeds or refuses the file; whatever it salvages is stable (a second recovery finds the same state and
// truncates nothing further — recovery-by-truncation converges in one
// pass); and the recovered log accepts appends. Corrupt, torn, and
// truncated tails all land here; seeds cover the interesting shapes
// (valid logs, tears at every boundary class, CRC flips, hostile
// varints) and live in testdata/fuzz committed alongside the test.
func FuzzWALReplay(f *testing.F) {
	frame := func(seq uint64, ops []Op) []byte {
		payload := EncodeWindowPayload(nil, seq, ops)
		rec := make([]byte, frameLen, frameLen+len(payload))
		rec = append(rec, payload...)
		putFrame(rec[:frameLen], rec[frameLen:])
		return rec
	}
	valid := append([]byte(logMagic),
		frame(1, []Op{{ID: "a", P: geom.Pt2(10, 20)}, {ID: "b", P: geom.Pt3(-1, 1<<40, 7)}})...)
	valid = append(valid, frame(2, []Op{{ID: "a", Del: true}})...)
	f.Add([]byte{})
	f.Add([]byte(logMagic))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])          // torn mid-record
	f.Add(valid[:magicLen+4])            // torn mid-header
	f.Add(append(valid[:0:0], valid...)) // corrupted below
	corrupt := append([]byte{}, valid...)
	corrupt[magicLen+frameLen+1] ^= 0x80
	f.Add(corrupt)
	f.Add([]byte("PSIWAL1\n\xff\xff\xff\xff\xff\xff\xff\xff")) // absurd length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, _ := oracleOps(dir)
		l, streamed, err := streamOps(dir)
		if !slices.Equal(streamed, want) {
			t.Fatalf("Open streamed %v (error %v), the oracle decodes %v", streamed, err, want)
		}
		if err != nil {
			return // rejected outright (bad header, corruption, I/O): fine, just no panic
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l, rec, err := openMap(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, rec2, err := openMap(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("second Open after recovery: %v", err)
		}
		defer l2.Close()
		if rec2.TruncatedBytes != 0 {
			t.Fatalf("recovery did not converge: second pass truncated %d more bytes", rec2.TruncatedBytes)
		}
		if rec2.Seq != rec.Seq || rec2.Records != rec.Records || !maps.Equal(rec.Entries, rec2.Entries) {
			t.Fatalf("recovery unstable: first %+v, second %+v", rec, rec2)
		}
		// The truncated log must be append-clean, and the append must
		// survive yet another recovery.
		if _, err := l2.AppendWindowAt(0, []Op{{ID: "post", P: geom.Pt2(1, 2)}}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l3, rec3, err := openMap(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open after post-recovery append: %v", err)
		}
		defer l3.Close()
		if p, ok := rec3.Entries["post"]; !ok || p != geom.Pt2(1, 2) {
			t.Fatalf("post-recovery append lost: %v", rec3.Entries)
		}
	})
}

// FuzzWALSnapshot throws arbitrary bytes at the wal.snap decoder. The
// harness seals the fuzzed body between the PSISNP2 magic and a valid
// CRC, so every input gets past the checksum to the term, seq, count
// and entry decoding. The contract under attack: Open never panics; it
// streams its fold the entries oracleOps decodes, op for op — all of them
// when it succeeds, those before the malformed one when it refuses the
// file; and whatever it recovers round-trips — WriteSnapshotAt of the recovered
// state, then a second Open, gives the same entries, seq and term. The
// committed seeds under testdata/fuzz are a valid snapshot, an empty
// one, a truncated varint, a count past the body, and an ID length that
// overruns it.
func FuzzWALSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		snap := append([]byte(snapMagic), body...)
		snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(body))
		if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		want, werr := oracleOps(dir)
		l, streamed, err := streamOps(dir)
		if (err == nil) != (werr == nil) || !slices.Equal(streamed, want) {
			t.Fatalf("Open streamed %v (error %v), the oracle decodes %v (error %v)", streamed, err, want, werr)
		}
		if err != nil {
			return // a malformed body is refused: fine, just no panic
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l, rec, err := openMap(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open after recovery: %v", err)
		}
		if err := l.WriteSnapshotAt(rec.Seq, len(rec.Entries), maps.All(rec.Entries)); err != nil {
			t.Fatalf("WriteSnapshotAt of the recovered state: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, rec2, err := openMap(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open of the rewritten snapshot: %v", err)
		}
		defer l2.Close()
		if rec2.Seq != rec.Seq || rec2.Term != rec.Term || !maps.Equal(rec.Entries, rec2.Entries) {
			t.Fatalf("snapshot round trip changed the state: first %+v, second %+v", rec, rec2)
		}
	})
}
