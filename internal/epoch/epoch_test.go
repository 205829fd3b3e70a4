package epoch

import "testing"

func TestPublishAndCounters(t *testing.T) {
	var m Manager
	a, b := &Version{Index: &pair{x: 1}}, &Version{Index: &pair{x: 2}}
	m.Init(a)
	if m.Epoch() != 0 || m.RetireLag() != 0 {
		t.Fatalf("fresh manager: epoch %d lag %d, want 0 0", m.Epoch(), m.RetireLag())
	}
	if got := m.Pin(); got != a || got.Index.Size() != 1 {
		t.Fatalf("Pin returned %+v, want the initial version", got)
	} else {
		m.Unpin(got)
	}

	prev := m.Publish(b)
	if prev != a {
		t.Fatalf("Publish displaced %+v, want the initial version", prev)
	}
	if m.Epoch() != 1 || b.Epoch() != 1 {
		t.Fatalf("after publish: manager epoch %d, version epoch %d, want 1 1", m.Epoch(), b.Epoch())
	}
	if m.RetireLag() != 1 {
		t.Fatalf("before drain: lag %d, want 1", m.RetireLag())
	}
	m.WaitDrained(prev)
	if m.RetireLag() != 0 {
		t.Fatalf("after drain: lag %d, want 0", m.RetireLag())
	}
	if got := m.Pin(); got != b {
		t.Fatalf("Pin returned %+v after publish, want the new version", got)
	} else {
		m.Unpin(got)
	}
}

func TestWaitDrainedBlocksOnPinnedReader(t *testing.T) {
	var m Manager
	a, b := &Version{Index: &pair{}}, &Version{Index: &pair{}}
	m.Init(a)
	pinned := m.Pin()
	prev := m.Publish(b)

	drained := make(chan struct{})
	go func() {
		m.WaitDrained(prev)
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("WaitDrained returned while a reader still pinned the version")
	default:
	}
	m.Unpin(pinned)
	<-drained
}
