package collection

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestPendingWindowBytes is the memory guard of the pending state: the heap
// that two full windows of fresh IDs hold per pending op after a GC, at
// psid's -maxbatch of 4096 — one window held mid-commit inside its index
// apply, the other enqueued behind it, each ID spelled afresh for its Set
// and kept by no one else, as psid hands them over. The figure counts
// everything the ops cost beyond an empty Collection, the held commit's
// plan included. It measures 70.2 B per op with one flat window type, 56
// of it the two windows' records, ID arenas and indexes (Stats.PendingBytes,
// logged); 276.0 B with an op tape of strings, a Go map overlay and a Go
// map netting scratch.
func TestPendingWindowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const batch = 4096
	ctl := new(gates)
	c := New(newGate(core.NewNull(2), ctl), Options{MaxBatch: batch})
	set := func(i int) { c.Set(fmt.Sprintf("veh-%06d", i), geom.Pt2(int64(i), int64(i))) }
	before := settledHeap()

	ctl.hold(1) // the first window blocks in its apply
	committed := make(chan struct{})
	go func() {
		for i := range batch {
			set(i) // the last Set flushes
		}
		close(committed)
	}()
	<-ctl.entered
	queued := make(chan struct{})
	go func() {
		for i := range batch {
			set(batch + i) // the last Set waits for the held flush
		}
		close(queued)
	}()
	waitFor(t, "a full second window", func() bool { return c.Pending() == batch })
	with := settledHeap()
	st := c.Stats()
	perOp := float64(with-before) / (2 * batch)
	t.Logf("%.1f B of heap per pending op (%d B with %d ops pending, %d B before; the windows hold %d B)",
		perOp, with, 2*batch, before, st.PendingBytes)
	close(ctl.release)
	<-committed
	<-queued
	if got := c.Len(); got != 2*batch {
		t.Fatalf("%d objects after both windows, want %d", got, 2*batch)
	}
	if perOp > 77 {
		t.Fatalf("pending state costs %.1f B of heap per op, want at most 77", perOp)
	}
}
