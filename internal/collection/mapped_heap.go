//go:build !unix || race

package collection

// Without the mapping (mapped.go) the table's arrays are ordinary heap
// slices: the collector frees them, and nothing is mapped.

const arraysMapped = false

func makeArray[T word](n, c int) []T { return make([]T, n, c) }

func freeArray[T word](s []T) {}

func arrayBytes[T word](s []T) int { return 0 }
