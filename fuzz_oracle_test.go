package psi

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// FuzzIndexOracle is the library-wide differential fuzzer: the input
// bytes are decoded into an operation tape (Build / BatchInsert /
// BatchDelete / BatchDiff) that is applied identically to all 11 ByName
// indexes, to a bare Sharded(SPaC-H) and Sharded(P-Orth) and to a
// BruteForce oracle, cross-checking sizes after every op and the full
// query suite (KNN at several k, RangeCount, RangeList) at checkpoints and
// at the end of the tape. The largest k, 50, exceeds the leaf wrap, so a
// best-first search holds several leaves before its heap fills; on short
// tapes it exceeds the index size. A sixth opcode forks every
// copy-on-write index (core.Adopter: P-Orth, the SPaC and CPAM trees, the
// Shardeds): a fresh replica adopts it and must from then on answer from
// the contents frozen at that moment, whatever the tape goes on to do to
// the original — checked, with Validate on both sides, after every op. Deletions are biased toward
// stored points so multiset-delete paths are actually exercised, and the
// coordinate domain is kept tiny so duplicate points, same-cell collisions
// and equal-distance KNN ties are routine. Seed corpus lives in
// testdata/fuzz/FuzzIndexOracle; CI smoke-runs the target for 10s and the
// Testing section of README.md documents longer local runs.
func FuzzIndexOracle(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runIndexOracleTape(t, data)
	})
}

// fuzzSeeds are the in-code seed corpus: arbitrary byte strings chosen
// to open with each opcode and mix batch shapes. The committed files
// under testdata/fuzz add deeper tapes.
var fuzzSeeds = []string{
	"",
	"0",
	"build then query 0123456789",
	"aAbBcCdDeEfFgGhH 0123 9876 zyxw",
	"PPoPP 2026 parallel dynamic spatial indexes",
	"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09",
	"kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk",
	"~}|{zyxwvutsrqponmlkjihgfedcba`_^]\\[ZYXWVUTSRQPONMLKJIHGFEDCBA@?",
	// 2D; Build the four neighbours of (16,16), each twice; query (16,16)
	// so every k cuts through an eight-way distance tie; delete two live
	// duplicates, then re-insert one; verify.
	"\x00\x00\x07\x01\x00\x00\x01\x01\x02\x02\x01\x01\x00\x00\x01\x01\x02\x02\x01" +
		"\x04\x01\x01\x01\x01\x00\x00\x00\x00\x02\x02\x01\x01\x01\x01" +
		"\x02\x01\x01\x02\x01\x00\x01\x00\x04\x01\x01\x01\x01\x02\x01",
	// 2D; Build 48 copies of one point (past the leaf wrap: the pivot and
	// both its subtrees are the same entry); fork; delete 16 of them (the
	// equal-to-pivot path: splitRun, join2) under the fork; fork again;
	// insert 32 more copies; diff 4 in and 8 out; verify.
	"\x00\x00\x2f" + strings.Repeat("\x08\x08", 48) +
		"\x05\x02\x0f" + strings.Repeat("\x01", 16) +
		"\x05\x01\x1f" + strings.Repeat("\x08\x08", 32) +
		"\x03\x03" + strings.Repeat("\x08\x08", 4) + "\x07" + strings.Repeat("\x01", 8) + "\x04",
	// 2D; Build an 8×8 grid in one corner (in P-Orth a chain of interior
	// nodes down to four leaves); fork; delete 32 distinct grid points
	// under the fork, so the chain collapses into one 32-point leaf (the
	// flatten of deleteSmall); insert an 8×4 grid beside them, so that leaf
	// splits again; verify.
	"\x00\x00\x3f" + grid(0, 8) + "\x05\x02\x1f" + liveSelectors(32) + "\x01\x1f" + grid(8, 4) + "\x04",
}

// grid encodes rows×8 2D points (x0+i, row) of the tape's byte scale.
func grid(x0, rows int) string {
	var b []byte
	for r := 0; r < rows; r++ {
		for i := 0; i < 8; i++ {
			b = append(b, byte(x0+i), byte(r))
		}
	}
	return string(b)
}

// liveSelectors encodes n delete selectors that pick n distinct points of
// a 64-point oracle: the first n bytes that are not multiples of 4 (which
// would decode a fresh point instead), distinct mod 64 and so, times 7,
// distinct indexes.
func liveSelectors(n int) string {
	var b []byte
	for s := 1; len(b) < n; s++ {
		if s%4 != 0 {
			b = append(b, byte(s))
		}
	}
	return string(b)
}

// fuzzSide bounds the fuzz coordinate domain: byte-derived coordinates
// scaled into [0, 4080], far inside SFC precision for both 2D and 3D.
const fuzzSide = int64(4096)

// fuzzTape is a cursor over the fuzz input; decoding stops cleanly when
// the bytes run out.
type fuzzTape struct {
	data []byte
	i    int
}

func (tp *fuzzTape) next() (byte, bool) {
	if tp.i >= len(tp.data) {
		return 0, false
	}
	b := tp.data[tp.i]
	tp.i++
	return b, true
}

func (tp *fuzzTape) point(dims int) (geom.Point, bool) {
	var p geom.Point
	for d := 0; d < dims; d++ {
		b, ok := tp.next()
		if !ok {
			return p, false
		}
		p[d] = int64(b) * 16
	}
	return p, true
}

// batch decodes 1 + (count byte % max) points; it returns what it could
// decode before the tape ran out.
func (tp *fuzzTape) batch(dims, max int) []geom.Point {
	b, ok := tp.next()
	if !ok {
		return nil
	}
	n := 1 + int(b)%max
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		p, ok := tp.point(dims)
		if !ok {
			break
		}
		pts = append(pts, p)
	}
	return pts
}

// deleteBatch decodes delete targets, biased ~3:1 toward points the
// oracle currently stores (so deletes mostly hit) with the rest decoded
// fresh (usually missing — the ignored-request path).
func (tp *fuzzTape) deleteBatch(oracle *core.BruteForce, dims, max int) []geom.Point {
	b, ok := tp.next()
	if !ok {
		return nil
	}
	live := append([]geom.Point(nil), oracle.Points()...)
	n := 1 + int(b)%max
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		sel, ok := tp.next()
		if !ok {
			break
		}
		if len(live) > 0 && sel%4 != 0 {
			pts = append(pts, live[int(sel)*7%len(live)])
			continue
		}
		p, ok := tp.point(dims)
		if !ok {
			break
		}
		pts = append(pts, p)
	}
	return pts
}

// verifyAll cross-checks every index against the oracle on size and on
// the standard query suite; query points and boxes are part of the decoded tape so the
// fuzzer can steer them toward discrepancies.
func verifyAll(t *testing.T, idxs []core.Index, oracle *core.BruteForce, tp *fuzzTape, dims int) {
	t.Helper()
	for _, idx := range idxs {
		if idx.Size() != oracle.Size() {
			t.Fatalf("%s: size %d, oracle %d", idx.Name(), idx.Size(), oracle.Size())
		}
	}
	queries := []geom.Point{{}, geom.UniverseBox(dims, fuzzSide).Hi}
	for i := 0; i < 3; i++ {
		if q, ok := tp.point(dims); ok {
			queries = append(queries, q)
		}
	}
	if pts := oracle.Points(); len(pts) > 0 {
		queries = append(queries, pts[len(pts)/2])
	}
	boxes := []geom.Box{geom.UniverseBox(dims, fuzzSide)}
	for i := 0; i < 2; i++ {
		lo, ok1 := tp.point(dims)
		hi, ok2 := tp.point(dims)
		if !ok1 || !ok2 {
			break
		}
		for d := 0; d < dims; d++ {
			if lo[d] > hi[d] {
				lo[d], hi[d] = hi[d], lo[d]
			}
		}
		boxes = append(boxes, geom.BoxOf(lo, hi))
	}
	for _, idx := range idxs {
		if err := core.VerifyQueries(idx, oracle, queries, []int{1, 3, 10, 50}, boxes); err != nil {
			t.Fatal(err)
		}
	}
}

// fork is one adopt step's outcome for one copy-on-write index: the
// replica that adopted it and the oracle frozen at that moment.
type fork struct {
	shadow, orig core.Index
	frozen       *core.BruteForce
}

// check holds the fork to isolation: the shadow still answers from the
// frozen contents, and both sides are structurally sound.
func (f fork) check(t *testing.T, dims int) {
	t.Helper()
	if f.shadow.Size() != f.frozen.Size() {
		t.Fatalf("%s: adopted copy holds %d points, %d when it adopted", f.orig.Name(), f.shadow.Size(), f.frozen.Size())
	}
	hi := geom.UniverseBox(dims, fuzzSide).Hi
	queries := []geom.Point{{}, hi}
	boxes := []geom.Box{geom.UniverseBox(dims, fuzzSide)}
	if pts := f.frozen.Points(); len(pts) > 0 {
		mid := pts[len(pts)/2]
		queries = append(queries, mid)
		boxes = append(boxes, geom.BoxOf(geom.Point{}, mid), geom.BoxOf(mid, hi))
	}
	if err := core.VerifyQueries(f.shadow, f.frozen, queries, []int{1, 3, 10, 50}, boxes); err != nil {
		t.Fatalf("adopted copy of %s drifted from its frozen contents: %v", f.orig.Name(), err)
	}
	for _, side := range []core.Index{f.shadow, f.orig} {
		if err := side.(interface{ Validate() error }).Validate(); err != nil {
			t.Fatalf("%s after a fork: %v", side.Name(), err)
		}
	}
}

func runIndexOracleTape(t *testing.T, data []byte) {
	tp := &fuzzTape{data: data}
	sel, ok := tp.next()
	if !ok {
		return
	}
	dims := 2 + int(sel)%2
	universe := geom.UniverseBox(dims, fuzzSide)
	names := []string{
		"P-Orth", "Zd-Tree", "SPaC-H", "SPaC-Z", "CPAM-H", "CPAM-Z",
		"Boost-R", "Pkd-Tree", "Log-Tree", "BHL-Tree", "BruteForce",
	}
	idxs := make([]core.Index, len(names))
	for i, name := range names {
		idxs[i] = ByName(name, dims, universe)
		if idxs[i] == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
	}
	idxs = append(idxs, NewSharded(NewSPaCH, dims, universe, 3), NewSharded(NewPOrth, dims, universe, 3))
	oracle := core.NewBruteForce(dims)
	var forks []fork

	apply := func(op func(core.Index)) {
		op(oracle)
		for _, idx := range idxs {
			op(idx)
		}
	}
	// Bounded tape: enough ops to stack interesting histories, small
	// enough that driving 11 indexes stays fast per exec.
	for opCount := 0; opCount < 12; opCount++ {
		b, ok := tp.next()
		if !ok {
			break
		}
		switch b % 6 {
		case 0:
			pts := tp.batch(dims, 128)
			apply(func(idx core.Index) { idx.Build(pts) })
		case 1:
			pts := tp.batch(dims, 32)
			if len(pts) > 0 {
				apply(func(idx core.Index) { idx.BatchInsert(pts) })
			}
		case 2:
			pts := tp.deleteBatch(oracle, dims, 32)
			if len(pts) > 0 {
				apply(func(idx core.Index) { idx.BatchDelete(pts) })
			}
		case 3:
			ins := tp.batch(dims, 16)
			del := tp.deleteBatch(oracle, dims, 16)
			if len(ins) > 0 || len(del) > 0 {
				apply(func(idx core.Index) { idx.BatchDiff(ins, del) })
			}
		case 4:
			verifyAll(t, idxs, oracle, tp, dims)
		case 5:
			// Fork: the earlier shadows stay, so a tape can hold several
			// generations of one tree at once.
			frozen := core.NewBruteForce(dims)
			frozen.Build(oracle.Points())
			for _, idx := range idxs {
				a, ok := idx.(core.Adopter)
				if !ok {
					continue
				}
				shadow := a.NewReplica()
				if !shadow.(core.Adopter).Adopt(idx) || !shadow.(core.Adopter).Shares(idx) {
					t.Fatalf("%s: a fresh replica did not adopt it", idx.Name())
				}
				forks = append(forks, fork{shadow, idx, frozen})
			}
		}
		for _, idx := range idxs {
			if idx.Size() != oracle.Size() {
				t.Fatalf("%s: size %d after op %d, oracle %d", idx.Name(), idx.Size(), opCount, oracle.Size())
			}
		}
		for _, f := range forks {
			f.check(t, dims)
		}
	}
	verifyAll(t, idxs, oracle, tp, dims)
}

// TestIndexOracleSeeds replays the in-code seed corpus as a plain test,
// so `go test` exercises the differential harness even when fuzzing is
// not invoked.
func TestIndexOracleSeeds(t *testing.T) {
	for _, s := range fuzzSeeds {
		runIndexOracleTape(t, []byte(s))
	}
}
