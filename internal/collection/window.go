package collection

import (
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/wal"
)

// window is one pending window: the ops enqueued since the last swap,
// netted as they arrive. It holds one record per ID, in the order the IDs
// first appeared, and a later op on an ID overwrites that ID's record in
// place, so the last write wins and the window is netted by the time a
// flush takes it: the same sequence of ops always nets to the same
// window. ops counts every op enqueued, netted or not — the MaxBatch
// trigger and the cancelled count read it.
//
// The window is pointer-free: the IDs sit back to back in one byte arena
// (ids), each record keeps its ID's offset and length, its hash and its
// stored int32 point, and one open-addressed, linear-probing index of
// record numbers finds a record by ID. The collector never scans any of
// it, and an ID costs its bytes, one 32-byte record and a few 4-byte
// buckets, however many ops the window holds on it. A window grows on demand
// and keeps its capacity when reset, so a Collection at steady load
// allocates nothing per op.
//
// An ID read out of a window (id) is a view into its arena, valid until
// the window is reset: callers that keep one copy it.
type window struct {
	ids  []byte
	recs []record
	// idx holds, per bucket, 0 for empty or a record's number plus one; its
	// size is a power of two, kept above 4/3 of the records.
	idx []uint32
	ops int
	// size is bytes() as of the last growth, so that Stats and the gauges
	// read it without a lock.
	size atomic.Int64
}

// record is one ID's latest pending op: a Set of pos, or a delete.
type record struct {
	hash   uint64
	off, n uint32 // the ID's bytes are ids[off:][:n]
	pos    [geom.MaxDims]int32
	del    bool
}

// point returns r's point, widened to a geom.Point (the zero point for a
// delete).
func (r *record) point() (p geom.Point) {
	for d, c := range r.pos {
		p[d] = int64(c)
	}
	return p
}

// set makes r a Set of p, or with del a delete.
func (r *record) set(p geom.Point, del bool) {
	r.del = del
	for d := range r.pos {
		r.pos[d] = int32(p[d])
	}
}

// id returns r's ID, a view into w's arena.
func (w *window) id(r *record) string {
	return unsafe.String(unsafe.SliceData(w.ids[r.off:]), int(r.n))
}

// add enqueues one op on id, whose hash is h: a Set of p, or with del a
// delete. It overwrites id's record if the window holds one — and reports
// that it did — and appends a record otherwise. p is in the stored range.
func (w *window) add(id string, h uint64, p geom.Point, del bool) (repeated bool) {
	w.ops++
	if 4*len(w.recs) >= 3*len(w.idx) {
		w.grow()
	}
	mask := uint32(len(w.idx) - 1)
	i := uint32(h) & mask
	for ; w.idx[i] != 0; i = (i + 1) & mask {
		if r := &w.recs[w.idx[i]-1]; r.hash == h && w.id(r) == id {
			r.set(p, del)
			return true
		}
	}
	if uint64(len(w.ids))+uint64(len(id)) > math.MaxUint32 {
		panic("collection: more than 4 GiB of pending IDs") // offsets are uint32s
	}
	w.recs = append(w.recs, record{hash: h, off: uint32(len(w.ids)), n: uint32(len(id))})
	w.recs[len(w.recs)-1].set(p, del)
	w.ids = append(w.ids, id...)
	w.idx[i] = uint32(len(w.recs))
	w.noteSize()
	return false
}

// noteSize publishes bytes() if it changed.
func (w *window) noteSize() {
	if n := w.bytes(); n != w.size.Load() {
		w.size.Store(n)
	}
}

// grow doubles the index (or makes its first one) and rehashes the
// records into it from the hashes they keep.
func (w *window) grow() {
	w.idx = make([]uint32, max(2*len(w.idx), 16))
	mask := uint32(len(w.idx) - 1)
	for n := range w.recs {
		i := uint32(w.recs[n].hash) & mask
		for w.idx[i] != 0 {
			i = (i + 1) & mask
		}
		w.idx[i] = uint32(n + 1)
	}
	w.noteSize()
}

// find returns id's record, nil when the window holds no op on id; h is
// id's hash.
func (w *window) find(id string, h uint64) *record {
	if len(w.recs) == 0 {
		return nil
	}
	mask := uint32(len(w.idx) - 1)
	for i := uint32(h) & mask; w.idx[i] != 0; i = (i + 1) & mask {
		if r := &w.recs[w.idx[i]-1]; r.hash == h && w.id(r) == id {
			return r
		}
	}
	return nil
}

// appendOps appends the window's ops to dst in first-appearance order,
// their IDs views into the arena, and returns the extended slice.
func (w *window) appendOps(dst []wal.Op) []wal.Op {
	for i := range w.recs {
		r := &w.recs[i]
		dst = append(dst, wal.Op{ID: w.id(r), P: r.point(), Del: r.del})
	}
	return dst
}

// reset empties the window and keeps its capacity.
func (w *window) reset() {
	clear(w.idx)
	w.ids, w.recs, w.ops = w.ids[:0], w.recs[:0], 0
}

// bytes is what the window holds on the heap: its arena, records and
// index, at capacity.
func (w *window) bytes() int64 {
	return int64(cap(w.ids)) + int64(cap(w.recs))*int64(unsafe.Sizeof(record{})) + 4*int64(cap(w.idx))
}
