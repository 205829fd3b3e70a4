package core

import (
	"runtime"
	"strings"
	"testing"
)

type testNode struct {
	gen uint64
	blk []int
}

type testHandle = Handle[testNode, int, struct{}]

// TestHandleFree: an update's Free recycles an owned node at once, and a
// shared one too when no view is pinned; with views pinned a shared node
// waits on the newest pin's list until that pin and every older one are
// unpinned — whichever is unpinned first — and comes back from the pool
// after. Outside an update Free does nothing, and a pool the collector
// took is replaced at the next Begin.
func TestHandleFree(t *testing.T) {
	var h testHandle
	h.Begin()
	pool := h.Pool() // held to the end, so the collector leaves it
	h.End()
	gave := 0
	give := func(p *Pool[testNode, int, struct{}], nd *testNode) { p.Blocks.Put(nd.blk); gave++ }
	// free frees a node stamped gen, in an update unless outside is set;
	// gave counts what the pool took at once.
	free := func(gen uint64, outside bool) *testNode {
		t.Helper()
		nd := &testNode{gen: gen, blk: make([]int, 0, 8)}
		if !outside {
			h.Begin()
			defer h.End()
		}
		gave = 0
		h.Free(nd, gen, give)
		return nd
	}
	// reused reports whether the next update's first node is nd.
	reused := func(nd *testNode) bool {
		h.Begin()
		defer h.End()
		return h.NewNode(testNode{}) == nd
	}

	if nd := free(h.Gen, false); gave != 1 || !reused(nd) {
		t.Fatalf("an owned node with no view pinned: recycled %v, want at once", gave == 1)
	}
	old := h.Pin()
	if nd := free(h.Gen, false); gave != 1 || !reused(nd) {
		t.Fatal("an owned node with a view pinned was not recycled at once")
	}
	if nd := free(h.Gen, true); gave != 0 || reused(nd) {
		t.Fatal("a node freed outside an update was recycled")
	}

	// A shared node waits for its pin.
	x := free(old.gen, false)
	if gave != 0 || len(old.nodes) != 1 {
		t.Fatalf("a shared node: recycled %v, on the pin's list %d, want waiting", gave == 1, len(old.nodes))
	}
	// A newer view, unpinned first: its list waits for the older view.
	newer := h.Pin()
	y := free(old.gen, false)
	if len(newer.nodes) != 1 || len(old.nodes) != 1 {
		t.Fatalf("lists %d and %d: a shared node goes to the newest pin's list", len(old.nodes), len(newer.nodes))
	}
	gave = 0
	h.Unpin(newer, give)
	if gave != 0 || len(h.pins) != 2 {
		t.Fatalf("unpinning the newer view reclaimed %d nodes with the older still pinned", gave)
	}
	h.Unpin(old, give)
	if gave != 2 || len(h.pins) != 0 || len(h.spare) != 2 {
		t.Fatalf("unpinning the older view reclaimed %d nodes, left %d pins; want both lists, no pins", gave, len(h.pins))
	}
	h.Begin()
	got := []*testNode{h.NewNode(testNode{}), h.NewNode(testNode{})}
	h.End()
	if (got[0] != x || got[1] != y) && (got[0] != y || got[1] != x) {
		t.Fatal("the reclaimed nodes did not come back from the pool")
	}

	// The older view unpinned first frees only its own list.
	a := h.Pin()
	free(a.gen, false)
	b := h.Pin()
	free(a.gen, false)
	gave = 0
	h.Unpin(a, give)
	if gave != 1 || len(h.pins) != 1 {
		t.Fatalf("unpinning the older view reclaimed %d nodes, want its one", gave)
	}
	h.Unpin(b, give)
	if gave != 2 || len(h.pins) != 0 {
		t.Fatalf("unpinning the newer view too reclaimed %d nodes in all, want 2", gave)
	}

	// With no view pinned any more, a node stamped before the last Pin is
	// recycled at once.
	if nd := free(a.gen, false); gave != 1 || !reused(nd) {
		t.Fatal("a shared node freed with no view pinned was not recycled at once")
	}
	runtime.KeepAlive(pool)

	var fresh testHandle
	fresh.Begin()
	nd := fresh.NewNode(testNode{gen: fresh.Gen})
	fresh.Free(nd, nd.gen, func(*Pool[testNode, int, struct{}], *testNode) {})
	fresh.End()
	runtime.GC()
	if fresh.pool.Value() != nil {
		t.Fatal("the pool outlived a collection with no update running")
	}
	fresh.Begin()
	if fresh.Pool() == nil || fresh.NewNode(testNode{}) == nd {
		t.Fatal("Begin after a collection did not start a fresh pool")
	}
	fresh.End()
}

// TestPinSteps: Pin steps the writer's generation above every stamp the
// view reaches and records the view's; a view refuses updates and pins,
// an unpinned or foreign pin is refused, and warm Pins reuse the records
// Unpin left.
func TestPinSteps(t *testing.T) {
	var h, other testHandle
	p := h.Pin()
	if p.gen != 0 || h.Gen != 1 || !h.Holds(p) || other.Holds(p) {
		t.Fatalf("Pin: view at %d, writer at %d; want 0 and 1, held by the writer alone", p.gen, h.Gen)
	}
	var view testHandle
	view.Viewing(p)
	if view.Gen != 0 || view.Viewed() != p || h.Viewed() != nil {
		t.Fatal("Viewing did not make a view at the pinned generation")
	}
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ") {
				t.Fatalf("%s: panic %q, want one from core", what, msg)
			}
		}()
		f()
	}
	panics("an update of a view", view.Begin)
	panics("a Pin of a view", func() { view.Pin() })
	panics("a foreign Unpin", func() { other.Unpin(p, nil) })
	h.Unpin(p, nil)
	panics("a second Unpin", func() { h.Unpin(p, nil) })
	if allocs := testing.AllocsPerRun(100, func() { h.Unpin(h.Pin(), nil) }); allocs != 0 {
		t.Fatalf("a warm Pin and Unpin allocate %.1f times, want 0", allocs)
	}
}
