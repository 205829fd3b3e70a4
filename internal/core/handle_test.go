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

// testView is a view of a testHandle's tree: an index with a handle and a
// root slot.
type testView struct {
	NullIndex
	h    testHandle
	root *testNode
}

func newTestView() (Index, *testHandle, **testNode) {
	v := new(testView)
	return v, &v.h, &v.root
}

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
	// list is the length of the list of v's record, -1 once v is unpinned.
	list := func(v Index) int {
		if p := h.held(v); p != nil {
			return len(p.nodes)
		}
		return -1
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
	oldGen := h.Gen
	old := h.Pin(nil, newTestView)
	if nd := free(h.Gen, false); gave != 1 || !reused(nd) {
		t.Fatal("an owned node with a view pinned was not recycled at once")
	}
	if nd := free(h.Gen, true); gave != 0 || reused(nd) {
		t.Fatal("a node freed outside an update was recycled")
	}

	// A shared node waits for its pin.
	x := free(oldGen, false)
	if gave != 0 || list(old) != 1 {
		t.Fatalf("a shared node: recycled %v, on the pin's list %d, want waiting", gave == 1, list(old))
	}
	// A newer view, unpinned first: its list waits for the older view.
	newer := h.Pin(nil, newTestView)
	y := free(oldGen, false)
	if list(newer) != 1 || list(old) != 1 {
		t.Fatalf("lists %d and %d: a shared node goes to the newest pin's list", list(old), list(newer))
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
	aGen := h.Gen
	a := h.Pin(nil, newTestView)
	free(aGen, false)
	b := h.Pin(nil, newTestView)
	free(aGen, false)
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
	if nd := free(aGen, false); gave != 1 || !reused(nd) {
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
// view reaches, points the view at the writer's root and puts its handle
// at the pinned generation; the view is current until the writer's root
// moves, and Unpin lets go of its root. A view refuses updates and pins,
// an unpinned or foreign view is refused, and warm Pins reuse the records
// Unpin left.
func TestPinSteps(t *testing.T) {
	var h, other testHandle
	root := &testNode{}
	v := h.Pin(root, newTestView)
	view := v.(*testView)
	if view.h.Gen != 0 || h.Gen != 1 || view.root != root {
		t.Fatalf("Pin: view at %d, writer at %d; want 0 and 1, over the writer's root", view.h.Gen, h.Gen)
	}
	if !h.Current(v, root) || other.Current(v, root) || h.Current(v, &testNode{}) {
		t.Fatal("Current: want the view current in its writer alone, over the root it was pinned at")
	}
	if !view.h.view || h.view {
		t.Fatal("Pin did not make a read-only view of a writer")
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
	panics("an update of a view", view.h.Begin)
	panics("a Pin of a view", func() { view.h.Pin(nil, newTestView) })
	panics("a foreign Unpin", func() { other.Unpin(v, nil) })
	panics("an Unpin of an index that is no view", func() { h.Unpin(NewNull(2), nil) })
	h.Unpin(v, nil)
	if view.root != nil || h.Current(v, root) {
		t.Fatal("Unpin left the view its root, or current")
	}
	panics("a second Unpin", func() { h.Unpin(v, nil) })
	if allocs := testing.AllocsPerRun(100, func() { h.Unpin(h.Pin(root, newTestView), nil) }); allocs != 0 {
		t.Fatalf("a warm Pin and Unpin allocate %.1f times, want 0", allocs)
	}
}
