package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/orthtree"
)

// The service layer enables epoch-pinned snapshot reads automatically
// when the configured index is copy-on-write (core.Adopter: the SPaC
// family and P-Orth), and reports the epoch counters over the wire in
// STATS.

// TestSnapshotAutoEnabled: a copy-on-write index — here a P-Orth tree —
// puts the Collection on the snapshot path: STATS reports two resident
// versions sharing one tree, the epoch advances with every non-empty
// flush, and queries observe flushed state as usual.
func TestSnapshotAutoEnabled(t *testing.T) {
	s := startServer(t, orthtree.NewDefault(2, testUniverse()), Options{})
	c := dialT(t, s)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 2 || st.Epoch != 0 || st.Cow == nil {
		t.Fatalf("initial stats = versions %d epoch %d cow %v, want 2 shared versions at epoch 0", st.Versions, st.Epoch, st.Cow)
	}
	if err := c.Set("a", []int64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Versions != 2 || st.RetireLag != 0 {
		t.Fatalf("stats after flush = %+v, want epoch 1, 2 versions, lag 0", st)
	}
	hits, err := c.Nearby([]int64{0, 0}, 1)
	if err != nil || len(hits) != 1 || hits[0].ID != "a" {
		t.Fatalf("Nearby on snapshot path = %v, %v, want [a]", hits, err)
	}
}

// TestSnapshotDisableOption: DisableSnapshot forces the classic locked
// path even for a copy-on-write index — one version, epoch pinned at 0.
func TestSnapshotDisableOption(t *testing.T) {
	s := startServer(t, orthtree.NewDefault(2, testUniverse()), Options{DisableSnapshot: true})
	c := dialT(t, s)
	if err := c.Set("a", []int64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 1 || st.Epoch != 0 || st.Cow != nil {
		t.Fatalf("locked stats = versions %d epoch %d cow %v, want 1 version at epoch 0", st.Versions, st.Epoch, st.Cow)
	}
}

// TestLockedReadsOverABaseline: over an index that cannot share its tree
// (a baseline: here the brute-force oracle) the server runs locked reads
// with DisableSnapshot unset, rather than failing construction.
func TestLockedReadsOverABaseline(t *testing.T) {
	s := startServer(t, core.NewBruteForce(2), Options{})
	c := dialT(t, s)
	if err := c.Set("a", []int64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 1 || st.Epoch != 0 || st.Cow != nil {
		t.Fatalf("stats over a baseline = versions %d epoch %d cow %v, want the locked shape", st.Versions, st.Epoch, st.Cow)
	}
}
