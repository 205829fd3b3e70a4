package main

import (
	"math"
	"slices"
	"time"
)

// recorder stores exact latencies as int64 nanoseconds in a slice that is
// preallocated by its owner goroutine, so recording never allocates inside
// a measured window and no sample is rounded into a histogram bucket.
type recorder struct {
	ns []int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{ns: make([]int64, 0, capacity)}
}

func (r *recorder) add(d time.Duration) { r.ns = append(r.ns, int64(d)) }

// merged returns all samples of the given recorders in one sorted slice.
func merged(rs ...*recorder) []int64 {
	n := 0
	for _, r := range rs {
		n += len(r.ns)
	}
	out := make([]int64, 0, n)
	for _, r := range rs {
		out = append(out, r.ns...)
	}
	slices.Sort(out)
	return out
}

// minTail is the number of samples that must lie beyond a percentile
// before it is reported (choosing-metrics guide, section 1).
const minTail = 10

// hasTail reports whether n samples leave at least minTail beyond their
// nearest-rank q-quantile.
func hasTail(n int, q float64) bool { return n-int(math.Ceil(q*float64(n))) >= minTail }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// and whether at least minTail samples lie beyond it. The rank is
// ceil(q*n); the value is an observed sample, never an interpolation.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], hasTail(n, q)
}

// median of float64 values (mean of the middle pair for even counts); it
// is what a run reports over its slices and what -repeat reports over runs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean of strictly positive values; non-positive entries are skipped
// so a suppressed cell cannot zero the pooled value.
func geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
