package repl

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/wal"
)

// fuzzSeeds builds the seed corpus: one well-formed stream per protocol
// shape plus every interesting corruption class. The same streams are
// committed under testdata/fuzz/FuzzReplStream (regenerate with
// PSID_WRITE_SEEDS=1 go test -run TestWriteReplSeeds ./internal/repl/),
// so `go test` replays them as plain tests, mirroring FuzzWALReplay.
func fuzzSeeds() map[string][]byte {
	win := func(term, seq uint64, ops ...wal.Op) []byte {
		return windowPayload(nil, term, wal.EncodeWindowPayload(nil, seq, ops))
	}
	valid := append([]byte(nil), Magic...)
	valid = appendFrame(valid, fmHello, seqTermPayload(nil, 2, 1))
	valid = appendFrame(valid, fmWindow, win(1, 1, wal.Op{ID: "a", P: geom.Pt2(10, 20)}))
	valid = appendFrame(valid, fmWindow, win(1, 2, wal.Op{ID: "a", Del: true}, wal.Op{ID: "b", P: geom.Pt3(-1, 1<<40, 7)}))
	valid = appendFrame(valid, fmPing, seqPayload(nil, 2))

	img := snapImage(2, 9, wal.Op{ID: "x", P: geom.Pt2(1, 1)}, wal.Op{ID: "y", P: geom.Pt2(2, 2)}, wal.Op{ID: "z", P: geom.Pt2(3, 3)})
	snap := append([]byte(nil), Magic...)
	snap = appendFrame(snap, fmHello, seqTermPayload(nil, 9, 2))
	snap = appendFrame(snap, fmSnapBegin, seqPayload(nil, 9))
	snap = appendFrame(snap, fmSnapData, img[:len(img)/2])
	snap = appendFrame(snap, fmSnapData, img[len(img)/2:])
	snap = appendFrame(snap, fmSnapEnd, nil)
	snap = appendFrame(snap, fmWindow, win(2, 10, wal.Op{ID: "x", P: geom.Pt2(5, 5)}))

	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x40 // corrupt the last frame's payload under its CRC

	hugeLen := append([]byte(nil), Magic...)
	hugeLen = append(hugeLen, fmHello, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)

	regress := append([]byte(nil), valid[:len(valid)-frameHdrLen-3]...) // valid minus the ping
	regress = appendFrame(regress, fmWindow, win(1, 1, wal.Op{ID: "dup", P: geom.Pt2(9, 9)}))

	gap := append([]byte(nil), Magic...)
	gap = appendFrame(gap, fmHello, seqTermPayload(nil, 5, 0))
	gap = appendFrame(gap, fmWindow, win(0, 1, wal.Op{ID: "a", P: geom.Pt2(1, 1)}))
	gap = appendFrame(gap, fmWindow, win(0, 5, wal.Op{ID: "b", P: geom.Pt2(2, 2)}))

	badType := append([]byte(nil), Magic...)
	badType = appendFrame(badType, fmHello, seqTermPayload(nil, 0, 0))
	badType = appendFrame(badType, 0x7f, []byte("junk"))

	// A snapshot carries no deletes, so the image that must be refused
	// is one whose CRC fails.
	bad := snapImage(0, 1, wal.Op{ID: "gone", P: geom.Pt2(4, 4)})
	bad[len(bad)-5] ^= 0x01
	snapDel := append([]byte(nil), Magic...)
	snapDel = appendFrame(snapDel, fmHello, seqTermPayload(nil, 1, 0))
	snapDel = appendFrame(snapDel, fmSnapBegin, seqPayload(nil, 1))
	snapDel = appendFrame(snapDel, fmSnapData, bad)
	snapDel = appendFrame(snapDel, fmSnapEnd, nil)

	// A window whose term disagrees with the session's HELLO term — the
	// fencing check must sever before applying.
	termMismatch := append([]byte(nil), Magic...)
	termMismatch = appendFrame(termMismatch, fmHello, seqTermPayload(nil, 2, 5))
	termMismatch = appendFrame(termMismatch, fmWindow, win(3, 1, wal.Op{ID: "a", P: geom.Pt2(1, 1)}))

	return map[string][]byte{
		"seed-empty":         {},
		"seed-bad-magic":     []byte("PSIWAL1\n"),
		"seed-magic-only":    []byte(Magic),
		"seed-valid-tail":    valid,
		"seed-snapshot":      snap,
		"seed-torn-frame":    valid[:len(valid)-3],
		"seed-torn-header":   valid[:len(Magic)+4],
		"seed-crc-flip":      crcFlip,
		"seed-huge-len":      hugeLen,
		"seed-regression":    regress,
		"seed-gap":           gap,
		"seed-bad-type":      badType,
		"seed-snap-del":      snapDel,
		"seed-term-mismatch": termMismatch,
	}
}

// snapImage is the wal.snap image of ops, all Sets, in order.
func snapImage(term, seq uint64, ops ...wal.Op) []byte {
	var b bytes.Buffer
	err := wal.WriteSnapshot(&b, term, seq, len(ops), func(yield func(string, geom.Point) bool) {
		for _, o := range ops {
			if !yield(o.ID, o.P) {
				return
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzReplStream throws arbitrary bytes at the follower's stream
// decoder — the one surface where a replica consumes another process's
// output. The contract under attack: stream never panics and never
// allocates unboundedly, whatever the bytes; windows reach the Applier
// only in strictly contiguous order (the modelApplier turns any gap or
// duplicate apply into a violation); and a malformed stream ends in an
// error, never a silent partial apply of a corrupt frame.
func FuzzReplStream(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app := newModelApplier()
		fo := NewFollower(app, FollowerOptions{Addr: "fuzz"})
		fo.maxFrame = 1 << 20 // keep hostile length prefixes from dominating fuzz throughput
		err := fo.stream(bytes.NewReader(data), io.Discard)
		if err == nil {
			t.Fatal("stream returned nil: it can only end in EOF or a protocol error")
		}
		if app.violation != "" {
			t.Fatalf("applier contract violated: %s", app.violation)
		}
		// Whatever was applied must be reachable again: the applied seq
		// only moves via contiguous windows or an explicit bootstrap.
		applies, boots := app.applies, app.bootstraps
		if boots == 0 && uint64(applies) != app.seq {
			t.Fatalf("%d applies but applied seq %d with no bootstrap", applies, app.seq)
		}
	})
}

// TestSnapshotSeeds pins what the two snapshot seeds are: the
// well-formed one bootstraps and rides on into its tail window, and the
// one with a corrupt CRC is refused with nothing applied.
func TestSnapshotSeeds(t *testing.T) {
	seeds := fuzzSeeds()
	app := newModelApplier()
	err := NewFollower(app, FollowerOptions{}).stream(bytes.NewReader(seeds["seed-snapshot"]), io.Discard)
	seq, state := app.snapshot()
	if err != io.EOF || app.bootstraps != 1 || app.term != 2 || seq != 10 || len(state) != 3 || state["x"] != geom.Pt2(5, 5) {
		t.Fatalf("seed-snapshot: %v; %d bootstraps, term %d, seq %d, state %v", err, app.bootstraps, app.term, seq, state)
	}
	app = newModelApplier()
	err = NewFollower(app, FollowerOptions{}).stream(bytes.NewReader(seeds["seed-snap-del"]), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") || app.bootstraps != 0 || len(app.state) != 0 {
		t.Fatalf("seed-snap-del: %v; %d bootstraps, state %v", err, app.bootstraps, app.state)
	}
}

// TestWriteReplSeeds regenerates the committed corpus under
// testdata/fuzz/FuzzReplStream in the Go fuzz-corpus encoding. Guarded
// by PSID_WRITE_SEEDS so a plain test run never rewrites testdata.
func TestWriteReplSeeds(t *testing.T) {
	if os.Getenv("PSID_WRITE_SEEDS") == "" {
		t.Skip("set PSID_WRITE_SEEDS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReplStream")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range fuzzSeeds() {
		body := []byte("go test fuzz v1\n[]byte(" + quoteCorpus(seed) + ")\n")
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// quoteCorpus renders b as a Go double-quoted string literal the fuzz
// corpus parser accepts (strconv.Quote escapes match Go syntax).
func quoteCorpus(b []byte) string {
	out := make([]byte, 0, len(b)*4+2)
	out = append(out, '"')
	const hex = "0123456789abcdef"
	for _, c := range b {
		switch {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c >= 0x20 && c < 0x7f:
			out = append(out, c)
		default:
			out = append(out, '\\', 'x', hex[c>>4], hex[c&0xf])
		}
	}
	return string(append(out, '"'))
}
