package main

import (
	"bytes"
	"testing"
)

// One seed must give byte-identical request streams (the benchmark
// contract: same seed, same inputs) and another seed different ones.
func TestStreamsDeterministicInSeed(t *testing.T) {
	m := mix{objects: 3000, set: 0.5, nearby: 0.4, hop: 0.01, k: 10, hits: 20}
	gen := func(seed int64) (pre, traffic [][]byte) {
		pop := newPopulation(m, seed)
		for _, s := range pop.preloadStreams(2) {
			pre = append(pre, s.buf)
		}
		for c := range 2 {
			traffic = append(traffic, pop.trafficStream(m, seed, c, 2, 5000).buf)
		}
		return pre, traffic
	}
	preA, trafficA := gen(7)
	preB, trafficB := gen(7)
	preC, trafficC := gen(8)
	for c := range 2 {
		if !bytes.Equal(preA[c], preB[c]) || !bytes.Equal(trafficA[c], trafficB[c]) {
			t.Errorf("connection %d: the same seed produced different streams", c)
		}
		if bytes.Equal(preA[c], preC[c]) || bytes.Equal(trafficA[c], trafficC[c]) {
			t.Errorf("connection %d: different seeds produced the same stream", c)
		}
	}
	if bytes.Equal(trafficA[0], trafficA[1]) {
		t.Error("two connections of one run replay the same stream")
	}
}

// Every generated line must be what its decoded op says, every SET must
// stay on an object its connection owns, and the mix must hold.
func TestStreamOpsMatchLines(t *testing.T) {
	m := mix{objects: 3000, set: 0.5, nearby: 0.4, hop: 0.01, k: 10, hits: 20}
	pop := newPopulation(m, 3)
	const conns, n = 3, 6000
	for c := range conns {
		s := pop.trafficStream(m, 3, c, conns, n)
		if len(s.ops) != n {
			t.Fatalf("stream has %d ops, want %d", len(s.ops), n)
		}
		counts := map[opKind]int{}
		for i, o := range s.ops {
			counts[o.kind]++
			line := s.line(i)
			if line[len(line)-1] != '\n' || bytes.Count(line, []byte("\n")) != 1 {
				t.Fatalf("op %d is not exactly one line: %q", i, line)
			}
			var want []byte
			switch o.kind {
			case opSet:
				if int(o.obj)%conns != c {
					t.Fatalf("connection %d SETs object %d, which it does not own", c, o.obj)
				}
				want = appendSet(nil, int(o.obj), o.p)
			case opNearby:
				want = appendNearby(nil, o.p, m.k)
			case opWithin:
				want = appendWithin(nil, o.p, o.half)
			}
			if !bytes.Equal(line, want) {
				t.Fatalf("op %d: line %q does not encode its op (%q)", i, line, want)
			}
			for d := range 2 {
				if o.p[d] < 0 || o.p[d] > side {
					t.Fatalf("op %d leaves the universe: %v", i, o.p)
				}
			}
		}
		for kind, share := range map[opKind]float64{opSet: m.set, opNearby: m.nearby, opWithin: 1 - m.set - m.nearby} {
			if got := float64(counts[kind]) / n; got < share-0.03 || got > share+0.03 {
				t.Errorf("connection %d: kind %d is %.3f of the stream, want about %.2f", c, kind, got, share)
			}
		}
	}
}

func TestScanHits(t *testing.T) {
	reply := []byte(`{"ok":true,"hits":[{"id":"o0000012","p":[1,2]},{"id":"o0000999","p":[3,4]}]}` + "\n")
	if n, valid := scanHits(reply, 1000); n != 2 || !valid {
		t.Errorf("scanHits = %d, %t; want 2, true", n, valid)
	}
	if _, valid := scanHits(reply, 999); valid {
		t.Error("an ID beyond the population passed as valid")
	}
	if _, valid := scanHits([]byte(`{"ok":true,"hits":[{"id":"veh-1","p":[1,2]}]}`), 1000); valid {
		t.Error("a foreign ID passed as valid")
	}
	if n, valid := scanHits([]byte(`{"ok":true}`), 1000); n != 0 || !valid {
		t.Errorf("empty reply: scanHits = %d, %t", n, valid)
	}
}
