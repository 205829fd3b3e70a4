package service

// Committed state has one way into the Collection per producer — SET/DEL
// through the tape, a replicated window through CommitWindow, recovery
// and bootstrap through collection.Recover — and these tests pin what
// each of the last three promises from the outside.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pkdtree"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/spactree"
	"repro/internal/wal"
	"repro/internal/workload"
)

// walRecords returns the record payloads of dir's wal.log, in order.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 8 || string(b[:8]) != "PSIWAL1\n" {
		t.Fatalf("%s: not a wal.log", dir)
	}
	var recs [][]byte
	for b = b[8:]; len(b) >= 8; {
		n := int(binary.LittleEndian.Uint32(b))
		if len(b) < 8+n {
			break
		}
		recs = append(recs, b[8:8+n])
		b = b[8+n:]
	}
	return recs
}

// snapImage is the wal.snap image of ops, all Sets, in order: what a
// leader sends a bootstrapping follower.
func snapImage(t *testing.T, term, seq uint64, ops ...wal.Op) []byte {
	t.Helper()
	var b bytes.Buffer
	err := wal.WriteSnapshot(&b, term, seq, len(ops), func(yield func(string, geom.Point) bool) {
		for _, o := range ops {
			if !yield(o.ID, o.P) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReplFollowerLogIsTheLeadersLog: a follower commits each leader
// window as it arrived — never split, never merged, never re-netted — so
// its wal.log holds the leader's record payloads byte for byte. The
// follower's interval flusher runs at 1 ms throughout and its batch
// trigger sits far below the window size: neither has anything to flush,
// because a replicated window does not pass through the tape.
func TestReplFollowerLogIsTheLeadersLog(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := startLeader(t, ldir, Options{WALFsync: wal.FsyncNever, MaxBatch: 1 << 20})
	follower := startDurable(t, fdir, Options{
		WALFsync:      wal.FsyncNever,
		ReplicaOf:     leader.ReplAddr().String(),
		ReplID:        "busy",
		FlushInterval: time.Millisecond,
		MaxBatch:      64,
	})
	lc := leader.Collection()
	const windows, ids = 8, 5000
	for w := 0; w < windows; w++ {
		for i := 0; i < 3000+400*w; i++ {
			id := fmt.Sprintf("o%d", (i*7+w*13)%ids)
			if (i+w)%11 == 0 {
				lc.Remove(id)
			} else {
				lc.Set(id, geom.Pt2(int64((i*31+w)%1000), int64((i*17+w*5)%1000)))
			}
		}
		if lc.Flush() == 0 {
			t.Fatalf("window %d applied nothing", w)
		}
		time.Sleep(2 * time.Millisecond) // let the follower's flusher tick between windows
	}
	waitConverged(t, leader, follower)

	want, got := walRecords(t, ldir), walRecords(t, fdir)
	if len(want) != windows {
		t.Fatalf("leader journaled %d windows, want %d", len(want), windows)
	}
	if len(got) != len(want) {
		t.Fatalf("follower journaled %d windows for the leader's %d (a window was split or merged)", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("window %d: follower record (%d bytes) differs from the leader's (%d bytes)", i+1, len(got[i]), len(want[i]))
		}
	}
	if st := follower.Stats(); st.Flushes != windows || st.Pending != 0 {
		t.Fatalf("follower stats %+v: want exactly one commit per leader window", st)
	}
	assertSameState(t, leader, follower)
}

// assertSameState requires two servers to hold the same objects.
func assertSameState(t *testing.T, a, b *Server) {
	t.Helper()
	state := func(s *Server) []string {
		var out []string
		for _, e := range s.coll.WithinIDs(testUniverse()) {
			out = append(out, fmt.Sprintf("%s@%v", e.ID, e.Point))
		}
		slices.Sort(out)
		return out
	}
	if sa, sb := state(a), state(b); !slices.Equal(sa, sb) {
		t.Fatalf("states differ: %d objects vs %d", len(sa), len(sb))
	}
}

// TestReplApplyFailedJournal: when the follower's journal append fails,
// ApplyWindow returns the error — the session is severed rather than
// acknowledged — the applied position has not moved, and the server is
// marked failed.
func TestReplApplyFailedJournal(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	if err := lc.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	follower := startFollowerOf(t, t.TempDir(), leader, "doomed")
	waitConverged(t, leader, follower)

	app := replApplier{follower}
	before := app.AppliedSeq()
	follower.wal.Close() // the next append fails like a dead disk
	err := app.ApplyWindow(before+1, []wal.Op{{ID: "b", P: geom.Pt2(2, 2)}})
	if err == nil {
		t.Fatal("ApplyWindow reported success over a failed journal append")
	}
	if got := app.AppliedSeq(); got != before {
		t.Fatalf("AppliedSeq moved %d -> %d across a failed append", before, got)
	}
	if !follower.walFailed.Load() || follower.Stats().WAL.JournalErrors != 1 {
		t.Fatalf("failure not recorded: %+v", follower.Stats().WAL)
	}
	if err := app.ApplyWindow(before+1, nil); err == nil {
		t.Fatal("a failed follower kept applying")
	}
}

// TestReplApplyRefusesUnnettedWindow: the stream is untrusted, and a
// window that repeats an ID — which no leader's Flush produces — must cost
// the session, not the process: ApplyWindow returns an error, nothing is
// journaled, the applied position has not moved, and the follower goes on
// applying well-formed windows.
func TestReplApplyRefusesUnnettedWindow(t *testing.T) {
	leader := startLeader(t, t.TempDir(), Options{})
	lc := dialT(t, leader)
	if err := lc.Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	follower := startFollowerOf(t, t.TempDir(), leader, "wary")
	waitConverged(t, leader, follower)

	app := replApplier{follower}
	before := app.AppliedSeq()
	for _, win := range [][]wal.Op{
		{{ID: "a", Del: true}, {ID: "a", Del: true}},
		{{ID: "a", Del: true}, {ID: "a", P: geom.Pt2(3, 3)}},
		{{ID: "b", P: geom.Pt2(2, 2)}, {ID: "b", P: geom.Pt2(3, 3)}},
	} {
		if err := app.ApplyWindow(before+1, win); err == nil {
			t.Fatalf("ApplyWindow accepted %+v", win)
		}
	}
	if got := app.AppliedSeq(); got != before || follower.walFailed.Load() {
		t.Fatalf("refused windows moved AppliedSeq %d -> %d or failed the WAL", before, got)
	}
	assertSameState(t, leader, follower)
	if err := app.ApplyWindow(before+1, []wal.Op{{ID: "b", P: geom.Pt2(2, 2)}}); err != nil {
		t.Fatalf("a well-formed window after the refused ones: %v", err)
	}
	if err := follower.coll.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfUniversePointsRefused: a point outside the universe reaches
// the index by no way in. A log written before SETs were checked can hold
// one past int32, which a Sharded(SPaC-H) cannot Build and no Collection
// can store: NewDurable returns an error that names it rather than
// panicking at every boot — over an unsharded baseline too, whose universe
// is the stored int32 range. A leader's bootstrap or window that carries
// one is refused before anything is journaled or applied.
func TestOutOfUniversePointsRefused(t *testing.T) {
	far := wal.Op{ID: "far", P: geom.Pt2(5_000_000_000, 1)}
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendWindowAt(0, []wal.Op{{ID: "near", P: geom.Pt2(1, 1)}, far}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	refusedBy := func(what string, universe geom.Box, err error) {
		t.Helper()
		want := fmt.Sprintf(`"far": point [5000000000 1] outside the universe %v`, universe)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want an error containing %s", what, err, want)
		}
	}
	refused := func(what string, err error) {
		t.Helper()
		refusedBy(what, testUniverse(), err)
	}
	_, err = NewDurable(newTestSharded(), Options{WALDir: dir, FlushInterval: -1})
	refused("NewDurable over the log", err)
	int32s := geom.BoxOf(geom.Pt2(math.MinInt32, math.MinInt32), geom.Pt2(math.MaxInt32, math.MaxInt32))
	_, err = NewDurable(pkdtree.NewDefault(2), Options{WALDir: dir, FlushInterval: -1})
	refusedBy("NewDurable over the log, unsharded Pkd-tree", int32s, err)

	s := startDurable(t, t.TempDir(), Options{WALFsync: wal.FsyncAlways})
	if err := dialT(t, s).Set("a", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	app := replApplier{s}
	before := app.AppliedSeq()
	refused("ApplyWindow", app.ApplyWindow(before+1, []wal.Op{{ID: "b", P: geom.Pt2(2, 2)}, far}))
	refused("Bootstrap", app.Bootstrap(before+1, app.Term(), bytes.NewReader(snapImage(t, app.Term(), before+1, far))))
	// A 2-D Collection stores no Z, so a frame that carries one is refused
	// the same way rather than reaching it.
	zed := wal.Op{ID: "zed", P: geom.Point{2, 2, 3}}
	if err := app.ApplyWindow(before+1, []wal.Op{zed}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf(`"zed": point [2 2 3] outside the universe %v`, testUniverse())) {
		t.Fatalf("ApplyWindow of a 2-D point with a Z: %v", err)
	}
	if got := app.AppliedSeq(); got != before || s.walFailed.Load() {
		t.Fatalf("refused windows moved AppliedSeq %d -> %d or failed the WAL", before, got)
	}
	if p, ok := s.coll.Get("a"); !ok || p != geom.Pt2(1, 1) || s.coll.Len() != 1 {
		t.Fatalf("state after the refusals: a at %v (%t), %d objects", p, ok, s.coll.Len())
	}
}

// TestWALRecoveryRebalancesShards: recovery is a bulk Load, so a Sharded
// index comes back with its regions rebalanced to the recovered data —
// held to the bound shard.TestAdaptiveRebalance holds Build to — where
// the same data fed through SETs had piled into the static regions.
func TestWALRecoveryRebalancesShards(t *testing.T) {
	const n, shards = 20000, 8
	side := workload.DefaultSide
	newSharded := func() *shard.Sharded {
		return shard.New(shard.Options{
			Dims: 2, Universe: geom.UniverseBox(2, side), Shards: shards,
			New: func(dims int, u geom.Box) core.Index { return spactree.NewSPaC(sfc.Hilbert, dims, u) },
		})
	}
	maxLoad := func(s *shard.Sharded) int { return slices.Max(s.ShardSizes(nil)) }
	dir := t.TempDir()
	opts := Options{WALDir: dir, WALFsync: wal.FsyncNever, FlushInterval: -1}

	sh1 := newSharded()
	s1, err := NewDurable(sh1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range workload.GenVarden(n, 2, side, 21) {
		s1.coll.Set(fmt.Sprintf("v%d", i), p)
	}
	s1.coll.Flush()
	static := maxLoad(sh1)
	shutdownT(t, s1)

	sh2 := newSharded()
	s2, err := NewDurable(sh2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownT(t, s2)
	if got := s2.WALRecovered().Objects; got != n {
		t.Fatalf("recovered %d objects, want %d", got, n)
	}
	if err := sh2.Validate(); err != nil {
		t.Fatal(err)
	}
	recovered := maxLoad(sh2)
	if recovered > static || recovered == n {
		t.Fatalf("recovered max shard load %d (static %d, n %d): outside the Build test's bound", recovered, static, n)
	}
	if recovered == static {
		t.Fatalf("recovery left the static regions in place (max load %d): it did not Build", recovered)
	}
	t.Logf("max shard load on varden: fed by SETs %d, recovered %d (ideal %d)", static, recovered, n/shards)
}

// TestFollowDropsPreFencePendingOps: an op a leader took but had not
// committed when it was fenced belongs to the old timeline. After FOLLOW
// it must be in neither the rejoined node's state nor the windows it
// journals from the new leader.
func TestFollowDropsPreFencePendingOps(t *testing.T) {
	adir := t.TempDir()
	a := startLeader(t, adir, Options{WALFsync: wal.FsyncNever}) // acks from memory: SETs stay pending
	ac := dialT(t, a)
	if err := ac.Set("shared", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Flush(); err != nil {
		t.Fatal(err)
	}
	bdir := t.TempDir()
	b := startDurable(t, bdir, Options{
		WALFsync: wal.FsyncNever, ReplicaOf: a.ReplAddr().String(), ReplID: "b", ReplListen: "127.0.0.1:0",
	})
	waitConverged(t, a, b)

	if err := ac.Set("ghost", []int64{6, 6}); err != nil { // acknowledged, pending, never replicated
		t.Fatal(err)
	}
	if err := a.Demote(""); err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(""); err != nil {
		t.Fatal(err)
	}
	if err := a.Follow(b.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	// Across the term boundary the rejoin is a snapshot bootstrap; wait
	// for it, so that the write below reaches the ex-leader as a window.
	waitCond(t, func() bool { return a.Stats().Repl.Follower.Bootstraps == 1 })
	bc := dialT(t, b)
	if err := bc.Set("fresh", []int64{7, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, b, a)

	if _, found, err := ac.Get("ghost"); err != nil || found {
		t.Fatalf("pre-fence pending op survived FOLLOW on the ex-leader: found=%t err=%v", found, err)
	}
	if a.coll.Pending() != 0 {
		t.Fatalf("ex-leader still has %d ops pending beside the replicated stream", a.coll.Pending())
	}
	assertSameState(t, b, a)
	// The first replicated window, as journaled on the ex-leader, is the
	// new leader's window and nothing else.
	want, got := walRecords(t, bdir), walRecords(t, adir)
	if len(want) != 1 || len(got) != 1 || !bytes.Equal(want[0], got[0]) {
		t.Fatalf("ex-leader journaled %d records after rejoining, new leader %d; want one identical window", len(got), len(want))
	}
}

// TestFollowCommitsOldTimelineFirst covers the rejoin no bootstrap would
// clean up after: a fenced leader re-pointed at a leader of its own term
// and sequence resumes the stream as is. FOLLOW commits the pending op
// on the old timeline first, which puts this node's log visibly ahead of
// the leader it joins — so the handshake falls back to a snapshot —
// instead of leaving the op on a follower's tape for its flusher to
// journal under a sequence the leader will use for something else.
func TestFollowCommitsOldTimelineFirst(t *testing.T) {
	a := startLeader(t, t.TempDir(), Options{WALFsync: wal.FsyncNever})
	c := startLeader(t, t.TempDir(), Options{WALFsync: wal.FsyncNever})
	for _, s := range []*Server{a, c} { // both at seq 1, term 0
		cl := dialT(t, s)
		if err := cl.Set("first", []int64{1, 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ac := dialT(t, a)
	if err := ac.Set("ghost", []int64{6, 6}); err != nil {
		t.Fatal(err)
	}
	if err := a.Demote(""); err != nil {
		t.Fatal(err)
	}
	if err := a.Follow(c.ReplAddr().String()); err != nil {
		t.Fatal(err)
	}
	// The old timeline's last window left this node's log AHEAD of the
	// leader it joins (seq 2 against 1), which the handshake answers with
	// a snapshot rather than a resume.
	waitCond(t, func() bool { return a.Stats().Repl.Follower.Bootstraps == 1 })
	cc := dialT(t, c)
	if err := cc.Set("fresh", []int64{7, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, a)
	if _, found, err := ac.Get("ghost"); err != nil || found {
		t.Fatalf("old-timeline op readable on the rejoined follower: found=%t err=%v", found, err)
	}
	if n := a.coll.Pending(); n != 0 {
		t.Fatalf("%d ops left on a follower's tape", n)
	}
	assertSameState(t, c, a)
}
