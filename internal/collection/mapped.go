package collection

import "sync/atomic"

// The slot table's four pointer-free arrays — pos, next, byID and byPt —
// come from makeArray and extend, never from make or append, and go back
// through freeArray. On unix builds without the race detector they are
// anonymous mappings outside the Go heap (mapped_unix.go): the collector
// never scans them, and they do not count towards its heap goal, which it
// sets at twice what survives a mark, so resident memory holds each array
// once instead of once plus that headroom. Every other build keeps them on
// the heap (mapped_heap.go); race builds do because the race detector does
// not see mapped memory.
//
// A mapped array is freed exactly once, by the table that owns it, when no
// reader can reach it any more, so no slice of one may outlive the table's
// use of it.

// word is the element type of a table array.
type word interface{ int32 | uint32 }

// mappedBytes counts the bytes of every live mapping makeArray made, in
// the whole process; 0 where the arrays stay on the heap.
var mappedBytes atomic.Int64

// extend returns s lengthened by n zeroed elements. When s is full they go
// into an array about a quarter larger, as append grows a large slice, and
// s is freed.
func extend[T word](s []T, n int) []T {
	l := len(s) + n
	if l > cap(s) {
		g := makeArray[T](len(s), max(l, cap(s)+cap(s)/4))
		copy(g, s)
		freeArray(s)
		s = g
	}
	s = s[:l]
	clear(s[l-n:])
	return s
}
