package main

import (
	"math"
	"math/rand"
	"strconv"

	psi "repro"
)

// side is the 2D coordinate universe [0, side]^2: psid's -side default and
// the paper's coordinate range (section 5.1).
const side = int64(1_000_000_000)

type opKind uint8

const (
	opSet opKind = iota
	opNearby
	opWithin
)

// op is one pre-generated request: its wire line is buf[off:end] of the
// stream that owns it, the decoded fields drive verification and the
// in-process replay of the traced run.
type op struct {
	kind     opKind
	obj      int32     // SET: object index
	p        psi.Point // SET: new position; NEARBY: query point; WITHIN: box centre
	half     int64     // WITHIN: box half-extent
	off, end uint32
}

// stream is one connection's request sequence, encoded before any clock
// starts so that the generator is never part of a measured window.
type stream struct {
	buf []byte
	ops []op
}

func (s *stream) line(i int) []byte { return s.buf[s.ops[i].off:s.ops[i].end] }

// mix describes a track-* traffic mix. Each object has a fixed home (a
// Varden draw) and every SET places it at home plus a uniform offset of at
// most hop*side per axis, so the point distribution is stationary over a
// run of any length: clusters blurred at the hop scale.
type mix struct {
	objects int
	set     float64 // share of SET
	nearby  float64 // share of NEARBY; the rest is WITHIN
	hop     float64 // SET offset radius as a share of side
	k       int     // NEARBY k
	hits    int     // WITHIN boxes are sized to hold about this many objects
}

// population is the seeded object set of one track-* run.
type population struct {
	home []psi.Point
	pos0 []psi.Point // preload positions: home plus the first offset
	// density answers "how far is the hits-th neighbour" at preload time;
	// WITHIN boxes are sized from it, so that the hit count holds under
	// skew. It is built and queried only while generating.
	density psi.Index
}

func objectID(dst []byte, i int) []byte {
	dst = append(dst, 'o')
	s := strconv.Itoa(i)
	for n := len(s); n < 7; n++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func clampCoord(c int64) int64 {
	if c < 0 {
		return -c
	}
	if c > side {
		return 2*side - c
	}
	return c
}

func offsetPoint(rng *rand.Rand, home psi.Point, r int64) psi.Point {
	return psi.Pt2(
		clampCoord(home[0]+rng.Int63n(2*r+1)-r),
		clampCoord(home[1]+rng.Int63n(2*r+1)-r),
	)
}

func newPopulation(m mix, seed int64) *population {
	home := psi.Generate(psi.Varden, m.objects, 2, side, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x706f70))
	// Varden emits a walk: neighbours in the slice are neighbours in
	// space. Shuffle so that object index carries no locality.
	rng.Shuffle(len(home), func(i, j int) { home[i], home[j] = home[j], home[i] })
	r := int64(m.hop * float64(side))
	pos0 := make([]psi.Point, len(home))
	for i, h := range home {
		pos0[i] = offsetPoint(rng, h, r)
	}
	density := psi.ByName("SPaC-H", 2, psi.Universe2D(side))
	density.Build(pos0)
	return &population{home: home, pos0: pos0, density: density}
}

func appendSet(buf []byte, obj int, p psi.Point) []byte {
	buf = append(buf, `{"op":"SET","id":"`...)
	buf = objectID(buf, obj)
	buf = append(buf, `","p":[`...)
	buf = strconv.AppendInt(buf, p[0], 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, p[1], 10)
	return append(buf, "]}\n"...)
}

func appendGet(buf []byte, obj int) []byte {
	buf = append(buf, `{"op":"GET","id":"`...)
	buf = objectID(buf, obj)
	return append(buf, "\"}\n"...)
}

func appendNearby(buf []byte, p psi.Point, k int) []byte {
	buf = append(buf, `{"op":"NEARBY","p":[`...)
	buf = strconv.AppendInt(buf, p[0], 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, p[1], 10)
	buf = append(buf, `],"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	return append(buf, "}\n"...)
}

func withinBox(p psi.Point, half int64) (lo, hi psi.Point) {
	lo = psi.Pt2(max(p[0]-half, 0), max(p[1]-half, 0))
	hi = psi.Pt2(min(p[0]+half, side), min(p[1]+half, side))
	return lo, hi
}

func appendWithin(buf []byte, p psi.Point, half int64) []byte {
	lo, hi := withinBox(p, half)
	buf = append(buf, `{"op":"WITHIN","lo":[`...)
	buf = strconv.AppendInt(buf, lo[0], 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, lo[1], 10)
	buf = append(buf, `],"hi":[`...)
	buf = strconv.AppendInt(buf, hi[0], 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, hi[1], 10)
	return append(buf, "]}\n"...)
}

// preloadStreams returns, per connection, the SETs that place every object
// the connection owns (index ≡ conn mod conns) at its preload position.
func (pop *population) preloadStreams(conns int) []*stream {
	out := make([]*stream, conns)
	for c := range out {
		s := &stream{}
		for i := c; i < len(pop.pos0); i += conns {
			off := len(s.buf)
			s.buf = appendSet(s.buf, i, pop.pos0[i])
			s.ops = append(s.ops, op{kind: opSet, obj: int32(i), p: pop.pos0[i], off: uint32(off), end: uint32(len(s.buf))})
		}
		out[c] = s
	}
	return out
}

// trafficStream generates n requests of the mix for connection conn of
// conns. A connection SETs only objects it owns, so each object's final
// position is the last SET its owner had acknowledged; queries centre on
// any object's neighbourhood.
func (pop *population) trafficStream(m mix, seed int64, conn, conns, n int) *stream {
	rng := rand.New(rand.NewSource(seed ^ int64(conn+1)*0x2545F4914F6CDD1D))
	r := int64(m.hop * float64(side))
	owned := (len(pop.home) - conn + conns - 1) / conns
	s := &stream{ops: make([]op, 0, n), buf: make([]byte, 0, n*64)}
	var nn []psi.Point
	for range n {
		o := op{off: uint32(len(s.buf))}
		switch u := rng.Float64(); {
		case u < m.set:
			o.kind = opSet
			o.obj = int32(conn + conns*rng.Intn(owned))
			o.p = offsetPoint(rng, pop.home[o.obj], r)
			s.buf = appendSet(s.buf, int(o.obj), o.p)
		case u < m.set+m.nearby:
			o.kind = opNearby
			o.p = offsetPoint(rng, pop.home[rng.Intn(len(pop.home))], r)
			s.buf = appendNearby(s.buf, o.p, m.k)
		default:
			o.kind = opWithin
			o.p = offsetPoint(rng, pop.home[rng.Intn(len(pop.home))], r)
			nn = pop.density.KNN(o.p, m.hits, nn[:0])
			far := nn[len(nn)-1]
			dx, dy := float64(far[0]-o.p[0]), float64(far[1]-o.p[1])
			// A square of half-extent d holds 4/pi times the disc of
			// radius d; shrink so the box holds about m.hits.
			o.half = max(int64(math.Sqrt((dx*dx+dy*dy)*math.Pi/4)), 1)
			s.buf = appendWithin(s.buf, o.p, o.half)
		}
		o.end = uint32(len(s.buf))
		s.ops = append(s.ops, o)
	}
	return s
}
