package sfc

// Hilbert curves. Either curve is a finite state machine read from the
// most significant bit down: one bit of every axis goes in, one digit of
// the code comes out, and the state — the orientation of the sub-curve
// inside the cell just entered — changes. The encoders run that machine a
// chunk of bits at a time from tables composed once at start-up: one
// lookup consumes a nibble of x and of y in 2D (8 lookups per code), three
// bits of every axis in 3D (7 lookups). Codes are computed once per point
// per batch, so this is on the hot path of every SPaC-H build and update.
//
// The 2D machine is the classic rotate-and-flip iteration; the 3D machine
// is Skilling's transpose algorithm ("Programming the Hilbert curve", AIP
// 2004), which the decoders still run directly. The tests keep the
// bit-serial encoders of both as oracles: codes are bit-identical to
// theirs, so cell orders, snapshots and replicas written by either
// interoperate.
//
// Precision: 31 bits per dimension in 2D (code < 2^62) and 21 bits per
// dimension in 3D (code < 2^63), enough for the paper's coordinate ranges
// ([0,1e9] in 2D, [0,1e6] in 3D after scaling).

// Hilbert2Bits and Hilbert3Bits are the per-dimension precisions.
const (
	Hilbert2Bits = 31
	Hilbert3Bits = 21
)

// Bits of every axis consumed per table lookup.
const (
	hilbert2Chunk = 4
	hilbert3Chunk = 3
)

// A chunk table entry is next<<w | digits and is indexed by state<<w |
// lanes, w = chunk·dims: lanes holds a chunk of bits of every axis, axis 0
// in the highest lane; digits is the w bits of code they emit. An entry
// with its digits masked off is therefore the base index of the next
// lookup.
var (
	hilbert2Tab = chunkTable(explore(orient2{swap: true}, 2, orient2.step), 2, hilbert2Chunk)
	hilbert3Tab = chunkTable(explore(orient3{perm: [3]uint8{0, 1, 2}}, 3, orient3.step), 3, hilbert3Chunk)
)

// Hilbert2 returns the Hilbert index of (x, y); only the low Hilbert2Bits
// of each coordinate are used.
func Hilbert2(x, y uint32) uint64 {
	x &= 1<<Hilbert2Bits - 1
	y &= 1<<Hilbert2Bits - 1
	// Eight nibbles are 32 bits. The 31-bit curve is the 32-bit curve
	// entered swapped: the leading bit pair (0, 0) emits digit 0 and
	// swaps back.
	const c, lane, w = hilbert2Chunk, 1<<hilbert2Chunk - 1, 2 * hilbert2Chunk
	var e uint32
	var code uint64
	for shift := 32 - c; shift >= 0; shift -= c {
		e = uint32(hilbert2Tab[e&^(1<<w-1)|(x>>shift&lane)<<c|y>>shift&lane])
		code = code<<w | uint64(e&(1<<w-1))
	}
	return code
}

// Hilbert3 returns the Hilbert index of (x, y, z); only the low
// Hilbert3Bits of each coordinate are used.
func Hilbert3(x, y, z uint32) uint64 {
	const c, lane, w = hilbert3Chunk, 1<<hilbert3Chunk - 1, 3 * hilbert3Chunk
	var e uint32
	var code uint64
	for shift := Hilbert3Bits - c; shift >= 0; shift -= c {
		e = uint32(hilbert3Tab[e&^(1<<w-1)|(x>>shift&lane)<<(2*c)|(y>>shift&lane)<<c|z>>shift&lane])
		code = code<<w | uint64(e&(1<<w-1))
	}
	return code
}

// hilbertStep is one transition of a curve's machine: the digit emitted
// and the state entered.
type hilbertStep struct{ digit, next uint8 }

// explore numbers the states reachable from start (start is state 0) and
// tabulates step over them, indexed by state<<dims | in. Bit dims-1-d of
// in is the bit of axis d.
func explore[S comparable](start S, dims int, step func(S, uint8) (uint8, S)) []hilbertStep {
	ids := map[S]uint8{start: 0}
	states := []S{start}
	var out []hilbertStep
	for i := 0; i < len(states); i++ {
		for in := uint8(0); in < 1<<dims; in++ {
			digit, next := step(states[i], in)
			id, seen := ids[next]
			if !seen {
				id = uint8(len(states))
				ids[next] = id
				states = append(states, next)
			}
			out = append(out, hilbertStep{digit, id})
		}
	}
	return out
}

// chunkTable composes k transitions of a machine into one lookup (layout
// at hilbert2Tab).
func chunkTable(one []hilbertStep, dims, k int) []uint16 {
	w := k * dims
	nstates := len(one) >> dims
	if nstates<<w > 1<<16 {
		panic("sfc: Hilbert state does not fit a table entry")
	}
	tab := make([]uint16, nstates<<w)
	for s := 0; s < nstates; s++ {
		for lanes := 0; lanes < 1<<w; lanes++ {
			state, digits := s, 0
			for l := k - 1; l >= 0; l-- {
				in := 0
				for d := 0; d < dims; d++ {
					in = in<<1 | lanes>>((dims-1-d)*k+l)&1
				}
				st := one[state<<dims|in]
				state, digits = int(st.next), digits<<dims|int(st.digit)
			}
			tab[s<<w|lanes] = uint16(state<<w | digits)
		}
	}
	return tab
}

// orient2 is a state of the 2D machine: how the bits below the current
// level are transformed before they are read.
type orient2 struct{ swap, flip bool }

// step is one level of the rotate-and-flip iteration.
func (o orient2) step(in uint8) (uint8, orient2) {
	rx, ry := in>>1&1, in&1
	if o.flip {
		rx, ry = rx^1, ry^1
	}
	if o.swap {
		rx, ry = ry, rx
	}
	if ry == 0 {
		if rx == 1 {
			o.flip = !o.flip
		}
		o.swap = !o.swap
	}
	return 3*rx ^ ry, o
}

// orient3 is a state of the 3D machine. Skilling's "inverse undo" loop
// leaves the bits below the current level with axis i holding the input's
// axis perm[i], inverted where flip[i]; the closing Gray-code pass adds
// the parity of the last axis over the levels above.
type orient3 struct {
	perm   [3]uint8
	flip   [3]bool
	parity uint8
}

// step is one level of axes-to-transpose followed by the interleave.
func (o orient3) step(in uint8) (uint8, orient3) {
	var c [3]uint8
	for i := range c {
		c[i] = in >> (2 - o.perm[i]) & 1
		if o.flip[i] {
			c[i] ^= 1
		}
	}
	for i := range c {
		if c[i] == 1 {
			o.flip[0] = !o.flip[0]
		} else {
			o.perm[0], o.perm[i] = o.perm[i], o.perm[0]
			o.flip[0], o.flip[i] = o.flip[i], o.flip[0]
		}
	}
	g1 := c[1] ^ c[0]
	g2 := c[2] ^ g1
	digit := (c[0]^o.parity)<<2 | (g1^o.parity)<<1 | g2 ^ o.parity
	o.parity ^= g2
	return digit, o
}

// HilbertDecode2 inverts Hilbert2.
func HilbertDecode2(code uint64) (x, y uint32) {
	const n = uint32(1) << Hilbert2Bits
	t := code
	for s := uint32(1); s < n; s <<= 1 {
		rx := uint32(1 & (t >> 1))
		ry := uint32(1 & (t ^ uint64(rx)))
		// Rotate back within the current sub-square of side s.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t >>= 2
	}
	return x, y
}

// HilbertDecode3 inverts Hilbert3.
func HilbertDecode3(code uint64) (x, y, z uint32) {
	var axes [3]uint32
	deinterleaveTransposed(code, axes[:], Hilbert3Bits)
	transposeToAxes(axes[:], Hilbert3Bits)
	return axes[0], axes[1], axes[2]
}

// transposeToAxes inverts axesToTranspose (Skilling's TransposetoAxes).
func transposeToAxes(x []uint32, bits uint) {
	n := len(x)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != uint32(1)<<bits; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				tt := (x[0] ^ x[i]) & p
				x[0] ^= tt
				x[i] ^= tt
			}
		}
	}
}

// deinterleaveTransposed inverts interleaveTransposed.
func deinterleaveTransposed(code uint64, x []uint32, bits uint) {
	for d := range x {
		x[d] = 0
	}
	shift := int(bits)*len(x) - 1
	for j := int(bits) - 1; j >= 0; j-- {
		for d := 0; d < len(x); d++ {
			bit := uint32(code >> uint(shift) & 1)
			x[d] |= bit << uint(j)
			shift--
		}
	}
}
