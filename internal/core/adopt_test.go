package core

import "testing"

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

// Reclaim hands the retired nodes on only when the Adopt is the partner's,
// the source alone retired them, and the receiver roots what the source's
// updates began from; in every case it ends the record.
func TestRetiredReclaim(t *testing.T) {
	type tree struct{ _ int }
	type node struct{ v int }
	src, other := new(tree), new(tree)
	root, elsewhere := new(node), new(node)
	for _, c := range []struct {
		name     string
		second   *tree // begins an update after src's, when set
		source   *tree
		root     *node
		partners bool
		want     int
	}{
		{"the partner's adopt", nil, src, root, true, 2},
		{"not partners", nil, src, root, false, 0},
		{"another source", nil, other, root, true, 0},
		{"another root", nil, src, elsewhere, true, 0},
		{"two handles retired", other, src, root, true, 0},
	} {
		var r Retired[tree, node]
		r.Begin(src, root)
		r.Add(&node{1})
		r.Add(&node{2})
		if c.second != nil {
			r.Begin(c.second, elsewhere)
		}
		got := 0
		r.Reclaim(c.source, c.root, c.partners, func(*node) { got++ })
		if got != c.want {
			t.Errorf("%s: %d nodes reclaimed, want %d", c.name, got, c.want)
		}
		if !r.empty() || r.by != nil || r.from != nil || r.mixed {
			t.Errorf("%s: the record outlived the Adopt", c.name)
		}
	}
	// A handle whose updates retired nothing hands the record over whole.
	var r Retired[tree, node]
	r.Begin(other, elsewhere)
	r.Begin(src, root)
	r.Add(&node{3})
	got := 0
	r.Reclaim(src, root, true, func(*node) { got++ })
	if got != 1 {
		t.Fatalf("after an update that retired nothing: %d reclaimed, want 1", got)
	}
}
