package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/orthtree"
)

// The service layer enables epoch-pinned snapshot reads automatically
// when the configured index can replicate itself (core.Replicator), and
// reports the epoch counters over the wire in STATS.

func newReplicableIndex() core.Index {
	return core.WithReplica(newTestIndex(), newTestIndex)
}

// TestSnapshotAutoEnabled: a Replicator index puts the Collection on the
// snapshot path — STATS reports two resident versions, the epoch advances
// with every non-empty flush, and queries observe flushed state as usual.
func TestSnapshotAutoEnabled(t *testing.T) {
	s := startServer(t, newReplicableIndex(), Options{})
	c := dialT(t, s)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 2 || st.Epoch != 0 {
		t.Fatalf("initial stats = versions %d epoch %d, want 2 versions at epoch 0", st.Versions, st.Epoch)
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
// path even for a Replicator index — one version, epoch pinned at 0.
func TestSnapshotDisableOption(t *testing.T) {
	s := startServer(t, newReplicableIndex(), Options{DisableSnapshot: true})
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
	if st.Versions != 1 || st.Epoch != 0 {
		t.Fatalf("locked stats = versions %d epoch %d, want 1 version at epoch 0", st.Versions, st.Epoch)
	}
}

// TestSnapshotRequiresReplicator: an index that cannot replicate itself
// silently stays on the locked path rather than failing construction.
func TestSnapshotRequiresReplicator(t *testing.T) {
	// A bare P-Orth tree: the SPaC family mints its own replicas.
	s := startServer(t, orthtree.NewDefault(2, testUniverse()), Options{})
	c := dialT(t, s)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Versions != 1 || st.Epoch != 0 {
		t.Fatalf("non-Replicator stats = versions %d epoch %d, want locked shape", st.Versions, st.Epoch)
	}
}
