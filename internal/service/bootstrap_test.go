package service

// A bootstrap is a WAL snapshot: the leader sends its wal.snap image, and
// the follower receives it into a file beside its own, recovers it as a
// restart would, and only then installs it. These tests pin what that
// promises when the image arrives whole, cut short, or wrong.

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/repl"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestBootstrapAllocationBudget bounds what a bootstrap of 10⁵ objects
// allocates on the heap, leader and follower together, per object: at
// most 200 B and a quarter of an allocation. The leader encodes one
// wal.snap image, the follower writes it to its receive file and recovers
// it through the decoder a restart uses, so what remains is the image
// buffer as it grows and what recovery from a snapshot costs (≈ 90 B, see
// TestRecoveryAllocationBudget): ≈ 131 B and 0.13 allocations. A leader
// that captured the state as one op per object, and a follower that
// collected them with a string per ID before it folded them and encoded
// its own snapshot, read ≈ 435 B and 1.13 allocations per object.
func TestBootstrapAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds keep the slot table's arrays on the heap")
	}
	const n = 100_000
	dir := t.TempDir()
	leader := startLeader(t, dir, Options{WALFsync: wal.FsyncNever})
	for i, p := range workload.Generate(workload.Uniform, n, 2, testSide, 7) {
		leader.coll.Set(fmt.Sprintf("veh-%07d", i), p)
	}
	shutdownT(t, leader)
	// Restarted, the leader's catch-up ring starts empty at the recovered
	// seq: a follower at 0 must bootstrap.
	leader = startLeader(t, dir, Options{WALFsync: wal.FsyncNever})
	seq := leader.wal.LastSeq()

	follower, err := NewDurable(newTestIndex(), Options{
		WALDir: t.TempDir(), WALFsync: wal.FsyncNever, FlushInterval: -1,
		ReplicaOf: leader.ReplAddr().String(), ReplID: "budget",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownT(t, follower) })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if err := follower.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	// Status counts the bootstrap once Bootstrap has returned.
	for follower.replFoll.Status().Bootstraps == 0 {
		if time.Since(t0) > 30*time.Second {
			t.Fatalf("bootstrap never finished: %d objects at seq %d", follower.coll.Len(), follower.wal.LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if st := follower.replFoll.Status(); st.Bootstraps != 1 || st.Windows != 0 || follower.coll.Len() != n || follower.wal.LastSeq() != seq {
		t.Fatalf("the follower holds %d objects at seq %d after %d bootstraps and %d windows; want %d at seq %d after one bootstrap",
			follower.coll.Len(), follower.wal.LastSeq(), st.Bootstraps, st.Windows, n, seq)
	}
	perObj := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("bootstrap of %d objects: %.1f B and %.3f allocations per object, %v", n, perObj, allocs, time.Since(t0))
	if perObj > 200 || allocs > 0.25 {
		t.Errorf("bootstrap allocates %.1f B and %.3f allocations per object, budget 200 B and 0.25", perObj, allocs)
	}
}

// ownState makes a WAL directory holding a follower's own state: mine-0 …
// mine-9 at seq 10, term 0, in wal.snap.
func ownState(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := startDurable(t, dir, Options{WALFsync: wal.FsyncAlways})
	c := dialT(t, s)
	for i := range 10 {
		if err := c.Set(fmt.Sprintf("mine-%d", i), []int64{int64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	shutdownT(t, s)
	return dir
}

// assertOwnState fails unless s holds exactly ownState's state, at its seq
// and term, with no bootstrap counted and the WAL healthy.
func assertOwnState(t *testing.T, s *Server) {
	t.Helper()
	if s.coll.Len() != 10 || s.wal.LastSeq() != 10 || s.wal.Term() != 0 || s.walFailed.Load() {
		t.Fatalf("%d objects at seq %d, term %d (WAL failed: %t); want 10 at seq 10, term 0",
			s.coll.Len(), s.wal.LastSeq(), s.wal.Term(), s.walFailed.Load())
	}
	for i := range 10 {
		if p, ok := s.coll.Get(fmt.Sprintf("mine-%d", i)); !ok || p != geom.Pt2(int64(i), 1) {
			t.Fatalf("mine-%d at %v (%t)", i, p, ok)
		}
	}
	if s.replFoll != nil {
		if st := s.replFoll.Status(); st.Bootstraps != 0 {
			t.Fatalf("%d bootstraps counted", st.Bootstraps)
		}
	}
}

// assertRestartsOwnState shuts s down and checks what its directory holds:
// no receive file, and ownState's state for a plain restart to recover.
func assertRestartsOwnState(t *testing.T, s *Server, dir string) {
	t.Helper()
	shutdownT(t, s)
	if _, err := os.Stat(filepath.Join(dir, "wal.snap.recv")); !os.IsNotExist(err) {
		t.Fatalf("a receive file outlived the follower: %v", err)
	}
	r := startDurable(t, dir, Options{})
	assertOwnState(t, r)
	shutdownT(t, r)
}

// serveSnapshot runs a bare replication leader at seq 5, term 1, that
// bootstraps every follower (the follower's term is below its own) with
// image, sent as a snapshot at seq 5.
func serveSnapshot(t *testing.T, image []byte) *repl.Leader {
	t.Helper()
	lead := repl.NewLeader(repl.LeaderOptions{
		Hub:      repl.NewHub(5, 0, 0),
		Snapshot: func() (uint64, []byte, error) { return 5, image, nil },
		Term:     func() uint64 { return 1 },
		Logf:     t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lead.Serve(ln)
	t.Cleanup(lead.Close)
	return lead
}

// relay forwards follower connections to target. Of each, it passes the
// first at bytes the leader sends, then asks mid, which may block and so
// hold the stream there, whether to cut the connection or pass the rest.
func relay(t *testing.T, target string, at int, mid func() (cut bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				l, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer l.Close()
				go io.Copy(l, c)
				if _, err := io.CopyN(c, l, int64(at)); err != nil || mid() {
					return
				}
				io.Copy(c, l)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestInterruptedBootstrap cuts a leader's snapshot stream after some of
// its SNAP_DATA frames. The follower keeps its state, seq and term, a
// checkpoint taken mid-stream completes, and its directory holds no stray
// receive file: a restart recovers the pre-bootstrap state. The same
// bootstrap, let through with checkpoints running beside it, completes,
// and neither clobbers the other's file: a restart recovers the leader's
// state at the leader's seq and term.
func TestInterruptedBootstrap(t *testing.T) {
	const n = 20000
	ops := make([]wal.Op, n)
	for i, p := range workload.Generate(workload.Uniform, n, 2, testSide, 3) {
		ops[i] = wal.Op{ID: fmt.Sprintf("lead-%05d", i), P: p}
	}
	image := snapImage(t, 1, 5, ops...)
	lead := serveSnapshot(t, image)
	reached, decide, quit := make(chan struct{}), make(chan bool), make(chan struct{})
	t.Cleanup(func() { close(quit) }) // a relay held at mid, now or later, cuts and exits
	addr := relay(t, lead.Addr().String(), len(image)/2, func() bool {
		select {
		case reached <- struct{}{}:
		case <-quit:
			return true
		}
		select {
		case cut := <-decide:
			return cut
		case <-quit:
			return true
		}
	})
	dir := ownState(t)

	f := startDurable(t, dir, Options{ReplicaOf: addr, ReplID: "cut"})
	<-reached // half the image is on its way to the follower
	if err := f.SnapshotWAL(); err != nil {
		t.Fatalf("checkpoint during the bootstrap: %v", err)
	}
	decide <- true
	<-reached // the follower reconnected: the cut bootstrap is over
	assertOwnState(t, f)
	if st := f.replFoll.Status(); !strings.Contains(st.LastError, "bootstrap") {
		t.Fatalf("the cut session ended with %q", st.LastError)
	}
	assertRestartsOwnState(t, f, dir) // its Shutdown severs the held session
	decide <- true

	f = startDurable(t, dir, Options{ReplicaOf: addr, ReplID: "cut"})
	<-reached
	done := make(chan error)
	go func() {
		// Checkpoints beside the rest of the stream, its load and install.
		for t0 := time.Now(); f.wal.LastSeq() != 5 && time.Since(t0) < 10*time.Second; {
			if err := f.SnapshotWAL(); err != nil {
				done <- err
				return
			}
		}
		done <- f.SnapshotWAL()
	}()
	decide <- false
	if err := <-done; err != nil {
		t.Fatalf("checkpoint beside the bootstrap: %v", err)
	}
	waitCond(t, func() bool { return f.replFoll.Status().Bootstraps == 1 })
	shutdownT(t, f)
	r := startDurable(t, dir, Options{})
	if r.coll.Len() != n || r.wal.LastSeq() != 5 || r.wal.Term() != 1 {
		t.Fatalf("restart after the bootstrap: %d objects at seq %d, term %d; want %d at seq 5, term 1",
			r.coll.Len(), r.wal.LastSeq(), r.wal.Term(), n)
	}
	if p, ok := r.coll.Get("lead-00042"); !ok || p != ops[42].P {
		t.Fatalf("lead-00042 at %v (%t), want %v", p, ok, ops[42].P)
	}
	if _, ok := r.coll.Get("mine-3"); ok {
		t.Fatal("the follower's own state survived its bootstrap")
	}
}

// TestRefusedSnapshots: a snapshot at another seq than SNAP_BEGIN's, at
// another term than HELLO's, with a flipped byte, or with an entry outside
// the universe is refused. Nothing of it is applied or persisted, and the
// session is severed: the follower reconnects and is offered it again.
func TestRefusedSnapshots(t *testing.T) {
	entries := []wal.Op{{ID: "a", P: geom.Pt2(1, 2)}, {ID: "b", P: geom.Pt2(3, 4)}}
	flipped := snapImage(t, 1, 5, entries...)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name  string
		image []byte
		want  string
	}{
		{"seq", snapImage(t, 1, 6, entries...), "received a snapshot at seq 6, term 1; want seq 5, term 1"},
		{"term", snapImage(t, 2, 5, entries...), "received a snapshot at seq 5, term 2; want seq 5, term 1"},
		{"crc", flipped, "snapshot checksum mismatch"},
		{"universe", snapImage(t, 1, 5, append(entries, wal.Op{ID: "far", P: geom.Pt2(testSide+5, 1)})...), `"far": point`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lead := serveSnapshot(t, tc.image)
			dir := ownState(t)
			f := startDurable(t, dir, Options{ReplicaOf: lead.Addr().String(), ReplID: tc.name})
			waitCond(t, func() bool { return lead.Stats().SnapshotsSent >= 2 })
			if st := f.replFoll.Status(); !strings.Contains(st.LastError, tc.want) {
				t.Fatalf("session ended with %q, want it to name %q", st.LastError, tc.want)
			}
			assertOwnState(t, f)
			assertRestartsOwnState(t, f, dir)
		})
	}
}
