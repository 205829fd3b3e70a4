package core

import (
	"runtime"
	"testing"
)

// Adopt moves a pair above every stamp either can reach, and a pair stays
// one across its own Adopts — its floor with it — until a third handle
// adopts one of the two or is adopted by one.
func TestTwinPairs(t *testing.T) {
	var a, b, c Twin
	if Adopt(&a, &b) {
		t.Fatal("two fresh handles were partners")
	}
	if a.Gen != 1 || b.Gen != 2 || a.floor != 0 || b.floor != 0 {
		t.Fatalf("first Adopt: gens %d/%d floors %d/%d, want 1/2 and 0/0", a.Gen, b.Gen, a.floor, b.floor)
	}
	if !Adopt(&b, &a) || b.Gen != 3 || a.Gen != 4 || a.floor != 0 {
		t.Fatalf("the pair's next Adopt: gens %d/%d floor %d, want partners at 3/4 and floor 0", b.Gen, a.Gen, a.floor)
	}
	if Adopt(&c, &a) {
		t.Fatal("a third handle was a partner of one of the pair")
	}
	if c.floor != 4 || a.floor != 4 || c.Gen != 5 || a.Gen != 6 {
		t.Fatalf("new pair: gens %d/%d floors %d/%d, want 5/6 and 4/4", c.Gen, a.Gen, c.floor, a.floor)
	}
	if Adopt(&b, &a) {
		t.Fatal("a handle whose partner adopted a third was still its partner")
	}
	if a.Retires(6) || !a.Retires(7) || b.floor != 6 {
		t.Fatalf("floor %d: a node stamped at it must stay, one above it retire", a.floor)
	}
}

// Free recycles an owned node at once and retires a shared one stamped
// above the pair's floor, which the partner's Adopt reclaims only when the
// partner still roots what the retiring updates began from and they alone
// retired; a node at or below the floor, or one freed outside an update,
// stays where it is; a pool the collector took is replaced at the next
// Begin.
func TestHandleFree(t *testing.T) {
	type node struct {
		gen uint64
		blk []int
	}
	type H = Handle[node, int, struct{}]
	root, elsewhere := new(node), new(node)
	own := func(b *H) uint64 { return b.Gen }
	shared := func(b *H) uint64 { return b.Gen - 1 } // the partner's
	floor := func(b *H) uint64 { return b.floor }
	partner := func(a, b, _ *H) (*H, *H) { return a, b }
	for _, c := range []struct {
		name         string
		gen          func(b *H) uint64 // the stamp of the node b frees
		build        bool              // b frees it outside an update, as Build does
		first, after bool              // a begins an update before b's, or after
		adopt        func(a, b, c *H) (receiver, source *H)
		root         *node // the receiver's contents at the adopt
		recycled     bool  // by Free
		retired      bool
		reclaimed    bool // by the adopt
	}{
		{name: "owned", gen: own, adopt: partner, root: root, recycled: true},
		{name: "the partner's adopt", gen: shared, adopt: partner, root: root, retired: true, reclaimed: true},
		{name: "at the floor", gen: floor, adopt: partner, root: root},
		{name: "outside an update", gen: shared, build: true, adopt: partner, root: root},
		{name: "not partners", gen: shared, adopt: func(_, b, c *H) (*H, *H) { return c, b }, root: root, retired: true},
		{name: "another source", gen: shared, adopt: func(a, b, _ *H) (*H, *H) { return b, a }, root: root, retired: true},
		{name: "another root", gen: shared, adopt: partner, root: elsewhere, retired: true},
		{name: "two handles retired", gen: shared, after: true, adopt: partner, root: root, retired: true},
		{name: "after an update that retired nothing", gen: shared, first: true, adopt: partner, root: root, retired: true, reclaimed: true},
	} {
		var a, b, third H
		a.Gen = 5
		b.Begin(nil)
		pool := b.Pool() // held until the case ends, so the collector leaves it
		b.End()
		a.Adopt(&b, nil, nil) // a pair with floor 5, at 6 and 7, sharing pool
		gave := 0
		give := func(p *Pool[node, int, struct{}], nd *node) { p.Blocks.Put(nd.blk); gave++ }
		nd := &node{gen: c.gen(&b), blk: make([]int, 0, 8)}
		if c.first {
			a.Begin(elsewhere)
			a.End()
		}
		if !c.build {
			b.Begin(root)
		}
		b.Free(nd, nd.gen, give)
		if reused := b.NewNode(node{}) == nd; gave == 1 != c.recycled || reused != c.recycled {
			t.Errorf("%s: recycled %v, reused at once %v, want %v", c.name, gave == 1, reused, c.recycled)
		}
		if pool.retired.empty() == c.retired {
			t.Errorf("%s: retired %v, want %v", c.name, !c.retired, c.retired)
		}
		b.End()
		if c.after {
			a.Begin(elsewhere)
			a.End()
		}
		gave = 0
		r, s := c.adopt(&a, &b, &third)
		r.Adopt(s, c.root, give)
		if gave == 1 != c.reclaimed {
			t.Errorf("%s: reclaimed %v, want %v", c.name, gave == 1, c.reclaimed)
		}
		if !pool.retired.empty() {
			t.Errorf("%s: the record outlived the Adopt", c.name)
		}
		r.Begin(root)
		if reused := r.NewNode(node{}) == nd; reused != c.reclaimed {
			t.Errorf("%s: reused after the adopt %v, want %v", c.name, reused, c.reclaimed)
		}
		r.End()
		runtime.KeepAlive(pool)
	}

	var h H
	h.Begin(root)
	nd := h.NewNode(node{gen: h.Gen})
	h.Free(nd, nd.gen, func(*Pool[node, int, struct{}], *node) {})
	h.End()
	runtime.GC()
	if h.pool.Value() != nil {
		t.Fatal("the pool outlived a collection with no update running")
	}
	h.Begin(root)
	if h.Pool() == nil || h.NewNode(node{}) == nd {
		t.Fatal("Begin after a collection did not start a fresh pool")
	}
	h.End()
}
