package collection

import (
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wal"
)

// FuzzCollectionMoves is the identity-layer differential fuzzer: the
// input bytes pick an inner index stack and its dimensionality (the high
// bit of the first byte asks for 3-D) and decode into a Set / Remove /
// Flush tape over a small ID space, mirrored into a plain map oracle.
// Get is checked after every op (the overlay gives read-your-writes, so
// Get must equal the oracle at all times, flushed or not); at every
// Flush checkpoint and at the end of the tape the full read suite —
// Len, WithinIDs, NearbyIDs distance sequences — and the
// index/fwd/rev consistency invariant (Validate) are verified. Op bytes
// from 0xF0 up are the two entry points beside the tape: CommitWindow
// (a netted window lands under whatever is pending) and Load (everything
// is replaced, pending ops included).
//
// The high bit of the second input byte picks the read mode: clear, the
// stack's copy-on-write capability is hidden and it runs locked reads;
// set, it runs as built, and a stack that pins views gets a
// concurrent epoch-pinned reader: the writer records the
// oracle contents at every published epoch, and the reader scans the
// universe, bracketing each scan with Epoch() loads — when the epoch did
// not move across the scan, epoch monotonicity guarantees the pinned
// version was that epoch, so the scan must equal the recorded oracle
// exactly. Run under -race this also hunts torn index/fwd/rev triples.
// Seed corpus lives in testdata/fuzz/FuzzCollectionMoves.
func FuzzCollectionMoves(f *testing.F) {
	for _, s := range collectionSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runCollectionTape(t, data)
	})
}

var collectionSeeds = []string{
	"",
	"set a few ids then flush and read them back",
	"move move move the same object 0000000000",
	"\x00\x01\x02\x03\x04\x05\x06\x07remove and reinsert",
	"interleave~!@#$%^&*()_+ flushes {[]} with everything",
	"ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
	// 0x83 sets the snapshot bit on the second byte: the same tape runs
	// with epoch-pinned reads and the concurrent per-epoch reader.
	"\x01\x83snapshot tape with concurrent epoch reader 123",
	"\x02\xffsharded snapshot tape, tiny batches \x01\x01\x01\x01",
	// 0xF0..0xF7 commit a netted window beside the tape, 0xF8..0xFF load.
	"\x01\x3fset some\xf0\x03abcdefghi then\xf1\x02jklmnop flush\x01\x01 more sets",
	"\x02\x85pending ops\xf8\x04loaded entries \xf2\x01xyz\xff\x00\x01\x01tail",
	"\x03\x87P-Orth shard stack\xfa\x07aaabbbcccdddeeefffggg\xf3\x04qrstuvwxyz01",
	// 0x80 on the first byte: the same stacks in 3-D, where a point takes
	// a third byte.
	"\x80\x05brute force in three dimensions, flush\x01\x01 and read back",
	"\x81\x83SPaC-H 3-D snapshot tape\xf1\x03abcdefghijkl flush\x01\x01 yyy",
	"\x82\x09sharded SPaC-H in 3-D\xf9\x05aaabbbcccdddeeefff\xf0\x02qrstuvwx",
	"\x83\xffsharded P-Orth in 3-D, tiny batches \x01\x01\x01\x01",
}

const fuzzIDs = 16

// fuzzKeys spells the fuzzed IDs. The first is the zero ID, "", which the
// slot table also leaves in its free slots: it must work as a live ID too.
// The last is 20 KiB long, so that a tape that removes it four times
// passes the ID arena's compaction threshold (minSpare) and one that
// inserts it a few times fills the arena's blocks; its length takes three
// bytes. The one before it is 80 KiB long, more than a 64 KiB window of
// the arena, so that its entry takes a block of its own across windows,
// and once compacted runs across windows inside a block.
var fuzzKeys = func() (ids [fuzzIDs]string) {
	for i := 1; i < fuzzIDs; i++ {
		ids[i] = key(i)
	}
	ids[fuzzIDs-2] = strings.Repeat("+", 80<<10)
	ids[fuzzIDs-1] = strings.Repeat("~", 20<<10)
	return ids
}()

// fuzzStacks lists the inner stacks the low bits of the first input byte
// select from, in a fixed order so corpus entries stay reproducible. Slot
// 0 runs locked reads in either mode; the others publish views of their
// trees when the tape asks for snapshot reads.
var fuzzStacks = []func(dims int) core.Index{
	func(dims int) core.Index { return core.NewBruteForce(dims) },
	func(dims int) core.Index { return spacH(dims, geom.UniverseBox(dims, side)) },
	func(dims int) core.Index { return shardedIn(dims, spacH) },
	func(dims int) core.Index { return shardedIn(dims, pOrth) },
}

func runCollectionTape(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	dims := 2
	if data[0]&0x80 != 0 {
		dims = 3
	}
	mk := fuzzStacks[int(data[0]&0x7F)%len(fuzzStacks)]
	// A tiny MaxBatch derived from the input lets the fuzzer also drive
	// threshold-triggered flushes mid-tape, not only explicit ones.
	maxBatch := 1 + int(data[1])%64
	c := New(inMode(mk(dims), data[1]&0x80 != 0), Options{MaxBatch: maxBatch})
	defer c.Close()
	snapshot := c.cell.Versions() == 2
	// committed mirrors the flushed state, tape the ops pending on top of
	// it, oracle their fold — what Get must answer at all times.
	committed := make(map[string]geom.Point)
	oracle := make(map[string]geom.Point)
	var tape []wal.Op
	apply := func(m map[string]geom.Point, ops []wal.Op) {
		for _, o := range ops {
			if o.Del {
				delete(m, o.ID)
			} else {
				m[o.ID] = o.P
			}
		}
	}
	flushed := func() { // the tape has just been applied, by Flush or by MaxBatch
		apply(committed, tape)
		tape = tape[:0]
	}
	enqueued := func(o wal.Op) {
		tape = append(tape, o)
		apply(oracle, tape[len(tape)-1:])
		if len(tape) >= maxBatch {
			flushed()
		}
	}
	var winSeq uint64
	// verify is the tape's checkpoint: every read against the oracle, and
	// the committed structures against each other.
	verify := func() {
		t.Helper()
		verifyAgainstOracle(t, c, oracle, fuzzIDs)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	// In snapshot mode, record the oracle contents at every published
	// epoch and race a reader against the tape. The writer can only
	// observe an epoch step after the op that flushed returns, so a
	// reader may briefly see an epoch with no recording yet — it skips
	// those; any epoch it finds recorded is exact.
	var (
		mu      sync.Mutex
		byEpoch map[uint64]map[string]geom.Point
	)
	record := func() {
		e := c.Epoch()
		mu.Lock()
		if _, ok := byEpoch[e]; !ok {
			byEpoch[e] = maps.Clone(committed)
		}
		mu.Unlock()
	}
	if snapshot {
		byEpoch = map[uint64]map[string]geom.Point{0: {}}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e0 := c.Epoch()
				got := c.WithinIDs(geom.UniverseBox(dims, side))
				if c.Epoch() != e0 {
					continue // scan straddled a publish; unattributable
				}
				mu.Lock()
				want, ok := byEpoch[e0]
				if ok {
					if len(got) != len(want) {
						t.Errorf("epoch %d: scan saw %d objects, oracle has %d", e0, len(got), len(want))
					}
					for _, en := range got {
						if p, ok := want[en.ID]; !ok || p != en.Point {
							t.Errorf("epoch %d: scan saw id %q at %v, oracle (%v, %t)", e0, en.ID, en.Point, p, ok)
						}
					}
				}
				failed := t.Failed()
				mu.Unlock()
				if failed {
					return
				}
			}
		}()
		defer func() { // runs before c.Close (LIFO)
			close(stop)
			wg.Wait()
		}()
	}

	i := 2
	next := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		b := data[i]
		i++
		return b, true
	}
	for ops := 0; ops < 256; ops++ {
		b, ok := next()
		if !ok {
			break
		}
		idb, ok := next()
		if !ok {
			break
		}
		id := fuzzKeys[int(idb)%fuzzIDs]
		// point decodes one coarse position, a byte per coordinate: %32
		// keeps the domain small so distinct IDs routinely share a point.
		point := func() (p geom.Point, ok bool) {
			ok = true
			for d := range dims {
				b, more := next()
				p[d], ok = int64(b%32)*(side/32), ok && more
			}
			return p, ok
		}
		switch {
		case b >= 0xF0:
			// idb is a count here: that many (id, x, y[, z]) tuples follow, for
			// a window (at most one op per ID; a zero x byte deletes) or a
			// full load (a repeated ID: the later entry wins).
			var ops []wal.Op
			seen := make(map[string]bool)
			for n := int(idb) % 8; n > 0; n-- {
				eb, ok := next()
				if !ok {
					break
				}
				o := wal.Op{ID: fuzzKeys[int(eb)%fuzzIDs]}
				if o.P, ok = point(); !ok {
					break
				}
				if b < 0xF8 {
					if seen[o.ID] {
						continue
					}
					seen[o.ID] = true
					o.Del = o.P[0] == 0
				}
				ops = append(ops, o)
			}
			if b < 0xF8 {
				winSeq++
				if err := c.CommitWindow(winSeq, ops); err != nil {
					t.Fatalf("CommitWindow: %v", err)
				}
				apply(committed, ops)
			} else {
				c.Load(len(ops), func(yield func(string, geom.Point) bool) {
					for _, o := range ops {
						if !yield(o.ID, o.P) {
							return
						}
					}
				})
				clear(committed)
				apply(committed, ops)
				tape = tape[:0]
			}
			oracle = maps.Clone(committed)
			apply(oracle, tape)
			if len(tape) == 0 {
				verify() // flushes: a no-op here
			}
		case b%8 == 0:
			c.Remove(id)
			enqueued(wal.Op{ID: id, Del: true})
		case b%8 == 1:
			c.Flush()
			flushed()
			verify()
		default:
			p, ok := point()
			if !ok {
				return
			}
			c.Set(id, p)
			enqueued(wal.Op{ID: id, P: p})
		}
		if snapshot {
			// Any op can step the epoch (MaxBatch-triggered flushes fire
			// inside Set/Remove), and committed mirrors the flushed state
			// whenever it does.
			record()
		}
		// Read-your-writes: Get tracks the oracle exactly, even for ops
		// still sitting in the pending log.
		gotP, gotOK := c.Get(id)
		wantP, wantOK := oracle[id]
		if gotOK != wantOK || (gotOK && gotP != wantP) {
			t.Fatalf("op %d: Get(%q) = (%v, %t), oracle (%v, %t)", ops, id, gotP, gotOK, wantP, wantOK)
		}
	}
	c.Flush()
	flushed()
	if snapshot {
		record()
	}
	verify()
}

// TestCollectionMovesSeeds replays the in-code seed corpus as a plain
// test, so `go test` exercises the differential harness even when
// fuzzing is not invoked.
func TestCollectionMovesSeeds(t *testing.T) {
	for _, s := range collectionSeeds {
		runCollectionTape(t, []byte(s))
	}
}
