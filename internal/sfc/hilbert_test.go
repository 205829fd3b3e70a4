package sfc

import (
	"math/rand"
	"testing"
)

// The bit-serial encoders the tables replaced, kept as oracles: every
// Hilbert code ever written to a snapshot, a WAL or a Sharded cell order
// came from these, so the table encoders must agree with them bit for bit.

// hilbert2Ref is the classic rotate-and-flip iteration, one bit pair per
// step.
func hilbert2Ref(x, y uint32) uint64 {
	const n = uint32(1) << Hilbert2Bits
	x &= n - 1
	y &= n - 1
	var d uint64
	for s := n >> 1; s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = n - 1 - x
				y = n - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// hilbert3Ref is Skilling's transpose algorithm followed by the
// interleave.
func hilbert3Ref(x, y, z uint32) uint64 {
	var axes [3]uint32
	axes[0] = x & (1<<Hilbert3Bits - 1)
	axes[1] = y & (1<<Hilbert3Bits - 1)
	axes[2] = z & (1<<Hilbert3Bits - 1)
	axesToTranspose(axes[:], Hilbert3Bits)
	return interleaveTransposed(axes[:], Hilbert3Bits)
}

// axesToTranspose converts coordinates to the transposed Hilbert index
// (Skilling's AxestoTranspose, verbatim structure).
func axesToTranspose(x []uint32, bits uint) {
	m := uint32(1) << (bits - 1)
	n := len(x)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// interleaveTransposed packs the transposed index into one uint64, MSB
// first: bit (bits-1-j) of axis 0, then axis 1, ... for j = 0.. bits-1.
func interleaveTransposed(x []uint32, bits uint) uint64 {
	var code uint64
	for j := int(bits) - 1; j >= 0; j-- {
		for d := 0; d < len(x); d++ {
			code = code<<1 | uint64(x[d]>>uint(j)&1)
		}
	}
	return code
}

// hilbertCurve is one encoder under test, over dims axes.
type hilbertCurve struct {
	dims, chunk, steps int
	tab                []uint16
	enc, ref           func(c [3]uint32) uint64
}

var hilbertCurves = map[string]hilbertCurve{
	"2D": {2, hilbert2Chunk, 32 / hilbert2Chunk, hilbert2Tab,
		func(c [3]uint32) uint64 { return Hilbert2(c[0], c[1]) },
		func(c [3]uint32) uint64 { return hilbert2Ref(c[0], c[1]) }},
	"3D": {3, hilbert3Chunk, Hilbert3Bits / hilbert3Chunk, hilbert3Tab,
		func(c [3]uint32) uint64 { return Hilbert3(c[0], c[1], c[2]) },
		func(c [3]uint32) uint64 { return hilbert3Ref(c[0], c[1], c[2]) }},
}

// coords spreads a sequence of lane values, most significant step first,
// into coordinates.
func (h hilbertCurve) coords(lanes []int) (c [3]uint32) {
	for _, v := range lanes {
		for d := 0; d < h.dims; d++ {
			c[d] = c[d]<<h.chunk | uint32(v>>((h.dims-1-d)*h.chunk))&(1<<h.chunk-1)
		}
	}
	return c
}

// TestHilbertTableExhaustive drives every table entry that any input can
// reach — every state that occurs at every step, times every lane value —
// and compares the whole code with the bit-serial oracle.
func TestHilbertTableExhaustive(t *testing.T) {
	for name, h := range hilbertCurves {
		t.Run(name, func(t *testing.T) {
			w := h.chunk * h.dims
			rng := rand.New(rand.NewSource(1))
			// reach maps a state that occurs before this step to the
			// lane values of some prefix that leads to it.
			reach := map[int][]int{0: nil}
			seen := map[int]bool{}
			checked := 0
			for step := 0; step < h.steps; step++ {
				next := map[int][]int{}
				for state, prefix := range reach {
					seen[state] = true
					for v := 0; v < 1<<w; v++ {
						if h.dims == 2 && step == 0 && v&0x88 != 0 {
							continue // bit 31 of a 2D coordinate is never read
						}
						lanes := append(append([]int(nil), prefix...), v)
						e := int(h.tab[state<<w|v])
						if _, ok := next[e>>w]; !ok {
							next[e>>w] = lanes
						}
						for len(lanes) < h.steps {
							lanes = append(lanes, rng.Intn(1<<w))
						}
						c := h.coords(lanes)
						if got, want := h.enc(c), h.ref(c); got != want {
							t.Fatalf("step %d state %d lanes %#x: code(%v) = %#x, oracle %#x", step, state, v, c, got, want)
						}
						checked++
					}
				}
				reach = next
			}
			if len(seen) != len(h.tab)>>w {
				t.Fatalf("%d of the table's %d states occur", len(seen), len(h.tab)>>w)
			}
			t.Logf("%d states, %d (step, state, lanes) entries checked", len(seen), checked)
		})
	}
}

// TestHilbertMatchesOracle covers the precision boundary (all-ones, the
// single top bit, the bits just outside the precision, which must be
// ignored) and 10^6 seeded random inputs.
func TestHilbertMatchesOracle(t *testing.T) {
	for name, h := range hilbertCurves {
		t.Run(name, func(t *testing.T) {
			bits := Hilbert2Bits
			if h.dims == 3 {
				bits = Hilbert3Bits
			}
			top := uint32(1) << (bits - 1)
			edge := []uint32{0, 1, 2, top - 1, top, top + 1, 2*top - 2, 2*top - 1, 2 * top, 2*top + 1, 1<<32 - 1}
			for _, x := range edge {
				for _, y := range edge {
					for _, z := range edge {
						c := [3]uint32{x, y, z}
						if got, want := h.enc(c), h.ref(c); got != want {
							t.Fatalf("code(%v) = %#x, oracle %#x", c, got, want)
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 1_000_000; i++ {
				c := [3]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
				if got, want := h.enc(c), h.ref(c); got != want {
					t.Fatalf("code(%v) = %#x, oracle %#x", c, got, want)
				}
			}
		})
	}
}

var sinkCode uint64

func benchCoords() []uint32 {
	rng := rand.New(rand.NewSource(3))
	cs := make([]uint32, 1<<12+2)
	for i := range cs {
		cs[i] = rng.Uint32()
	}
	return cs
}

func BenchmarkHilbert2(b *testing.B) {
	cs := benchCoords()
	for i := 0; i < b.N; i++ {
		j := i & (1<<12 - 1)
		sinkCode += Hilbert2(cs[j], cs[j+1])
	}
}

func BenchmarkHilbert3(b *testing.B) {
	cs := benchCoords()
	for i := 0; i < b.N; i++ {
		j := i & (1<<12 - 1)
		sinkCode += Hilbert3(cs[j], cs[j+1], cs[j+2])
	}
}
