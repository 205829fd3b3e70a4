package obs

import (
	"sync"
	"sync/atomic"
)

// ring is the preallocated overwrite-oldest buffer behind FlushTrace and
// SlowLog. Recording claims a slot with one atomic increment and writes
// it under that slot's own mutex, so concurrent recorders never contend
// beyond the sequence counter, and a put allocates nothing: the value is
// copied into storage that lives as long as the ring. Readers copy slots
// out under the per-slot locks and may allocate freely.
type ring[T any] struct {
	seq   atomic.Uint64
	slots []ringSlot[T]
}

type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 0 until the slot is first written
	v   T
}

// init sizes the ring to capacity entries (minimum 1).
func (r *ring[T]) init(capacity int) {
	r.slots = make([]ringSlot[T], max(capacity, 1))
}

// put stores v under the next sequence number, overwriting the oldest
// entry when the ring is full.
func (r *ring[T]) put(v T) {
	seq := r.seq.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.seq, s.v = seq, v
	s.mu.Unlock()
}

// snapshot copies the retained entries out through conv, oldest first.
// Entries recorded concurrently with the copy may land out of their final
// order but are never torn (each slot is copied under its lock); the
// result is sorted by sequence number.
func snapshot[T, O any](r *ring[T], conv func(seq uint64, v *T) O) []O {
	out := make([]O, 0, len(r.slots))
	seqs := make([]uint64, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			out = append(out, conv(s.seq, &s.v))
			seqs = append(seqs, s.seq)
		}
		s.mu.Unlock()
	}
	// Insertion sort by seq: the ring is nearly ordered already (one
	// rotation), and snapshot sizes are ring-capacity bounded.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && seqs[j-1] > seqs[j]; j-- {
			seqs[j-1], seqs[j] = seqs[j], seqs[j-1]
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
