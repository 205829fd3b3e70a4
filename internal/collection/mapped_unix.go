//go:build unix && !race

package collection

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arraysMapped: the table's arrays are mappings, which only release frees.
const arraysMapped = true

var pageSize = syscall.Getpagesize()

// makeArray returns a zeroed array of n elements with room for at least c,
// mapped from anonymous pages: its capacity is the whole mapping, c rounded
// up to a page. It panics when the system refuses the mapping, where make
// would abort the program.
func makeArray[T word](n, c int) []T {
	size := int(unsafe.Sizeof(T(0)))
	bytes := (max(c, 1)*size + pageSize - 1) / pageSize * pageSize
	b, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("collection: mapping %d bytes of slot table: %v", bytes, err))
	}
	mappedBytes.Add(int64(bytes))
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), bytes/size)[:n]
}

// freeArray unmaps s, an array from makeArray or a reslice of one that
// keeps its start; nil is nothing to free.
func freeArray[T word](s []T) {
	if cap(s) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), arrayBytes(s))
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("collection: unmapping %d bytes of slot table: %v", len(b), err))
	}
	mappedBytes.Add(-int64(len(b)))
}

// arrayBytes returns the bytes mapped behind s.
func arrayBytes[T word](s []T) int { return cap(s) * int(unsafe.Sizeof(T(0))) }
