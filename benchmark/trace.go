package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	psi "repro"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	start, end int64
	op         int64 // request or batch the span belongs to
}

// spanBuf is preallocated span memory. Slots are claimed with one atomic
// add, so goroutines that a layer fans work out to (shard sub-batches, the
// server's flusher) can record without a lock; spans beyond the capacity
// are counted, not stored.
type spanBuf struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
	busy  atomic.Int64 // summed duration of every span added, kept or not
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, capacity)}
}

func (b *spanBuf) add(name string, start, end time.Time, op int64) {
	b.busy.Add(int64(end.Sub(start)))
	i := b.next.Add(1) - 1
	if i < int64(len(b.spans)) {
		b.spans[i] = span{name: name, start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)), op: op}
	}
}

// recorded returns the stored spans and how many were dropped for space.
func (b *spanBuf) recorded() (spans []span, dropped int64) {
	n := b.next.Load()
	if n > int64(len(b.spans)) {
		return b.spans, n - int64(len(b.spans))
	}
	return b.spans[:n], 0
}

// spansPerConn bounds the client-side spans kept per connection: the
// first seconds of a window. Spans beyond it still count into the totals.
const spansPerConn = 1 << 16

var clientSpanName = [...]string{opSet: "client.SET", opNearby: "client.NEARBY", opWithin: "client.WITHIN"}

// tracer owns the span memory of one traced run.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer(bufs, capacity int) *tracer {
	t := &tracer{epoch: time.Now()}
	for range bufs {
		t.bufs = append(t.bufs, newSpanBuf(t.epoch, capacity))
	}
	return t
}

func (t *tracer) buf(i int) *spanBuf { return t.bufs[i] }

// extra adds one more buffer (the in-process replays and the layer suite
// record into their own).
func (t *tracer) extra(capacity int) *spanBuf {
	b := newSpanBuf(t.epoch, capacity)
	t.bufs = append(t.bufs, b)
	return b
}

// layerOrder nests the span names from the outside in: a span's parent is
// the innermost span of the closest outer layer that encloses it in time.
var layerOrder = []string{"client", "service", "collection", "shard", "index"}

func layerOf(name string) int {
	for i, l := range layerOrder {
		if len(name) > len(l) && name[:len(l)] == l && name[len(l)] == '.' {
			return i
		}
	}
	return -1
}

// writeJSONL writes every recorded span, one JSON object per line: name,
// start and end in ns since the run's trace epoch, the buffer it came
// from, its op id and its parent (the index, within the same buffer, of
// the enclosing span of the next outer layer; -1 at the top).
func (t *tracer) writeJSONL(path string) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for bi, b := range t.bufs {
		spans, _ := b.recorded()
		parents := parentsOf(spans)
		for i, s := range spans {
			fmt.Fprintf(w, `{"buf":%d,"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"op":%d}`+"\n",
				bi, i, s.name, s.start, s.end, parents[i], s.op)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// parentsOf resolves each span's parent by time containment within one
// buffer. Buffers are recorded by code that runs one top-level call at a
// time, so containment is unambiguous.
func parentsOf(spans []span) []int {
	parents := make([]int, len(spans))
	byLayer := make([][]int, len(layerOrder))
	for i, s := range spans {
		parents[i] = -1
		if l := layerOf(s.name); l >= 0 {
			byLayer[l] = append(byLayer[l], i)
		}
	}
	for _, ids := range byLayer {
		slices.SortFunc(ids, func(a, b int) int { return int(spans[a].start - spans[b].start) })
	}
	for l := 1; l < len(byLayer); l++ {
		for _, i := range byLayer[l] {
			for outer := l - 1; outer >= 0 && parents[i] < 0; outer-- {
				ids := byLayer[outer]
				// Last span of the outer layer that starts at or before i.
				j, _ := slices.BinarySearchFunc(ids, spans[i].start+1, func(id int, t int64) int {
					if spans[id].start < t {
						return -1
					}
					return 1
				})
				if j > 0 && spans[ids[j-1]].end >= spans[i].end {
					parents[i] = ids[j-1]
				}
			}
		}
	}
	return parents
}

// covered returns the time covered by the spans of one layer that start
// in [from, to): the length of the union of their intervals, so that work
// a layer fans out over several goroutines counts as the time its caller
// waited.
func covered(spans []span, layer string, from, to int64) time.Duration {
	type iv struct{ s, e int64 }
	var ivs []iv
	l := layerOf(layer + ".")
	for _, s := range spans {
		if layerOf(s.name) == l && s.start >= from && s.start < to {
			ivs = append(ivs, iv{s.start, s.end})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.s - b.s) })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.s > end {
			total += v.e - v.s
			end = v.e
		} else if v.e > end {
			total += v.e - end
			end = v.e
		}
	}
	return time.Duration(total)
}

// timedIndex is the psi.Index timing decorator: wherever the benchmark
// hands an index to the layer above, it hands this wrapper, which records
// one span per batch or query call.
type timedIndex struct {
	psi.Index
	layer string // "index" around a tree, "shard" around a Sharded
	buf   *spanBuf
}

// timedReplicable is timedIndex over an index that can mint empty twins
// of itself: it forwards NewReplica (wrapping the twin too), so a server
// built on the decorator keeps its snapshot-read path.
type timedReplicable struct{ *timedIndex }

type replicator interface{ NewReplica() psi.Index }

func timed(idx psi.Index, layer string, buf *spanBuf) psi.Index {
	t := &timedIndex{Index: idx, layer: layer, buf: buf}
	if _, ok := idx.(replicator); ok {
		return timedReplicable{t}
	}
	return t
}

func (t timedReplicable) NewReplica() psi.Index {
	return timed(t.Index.(replicator).NewReplica(), t.layer, t.buf)
}

// untimed takes the decorator off again.
func untimed(idx psi.Index) psi.Index {
	switch t := idx.(type) {
	case timedReplicable:
		return t.Index
	case *timedIndex:
		return t.Index
	}
	return idx
}

func (t *timedIndex) Build(pts []psi.Point) {
	t0 := time.Now()
	t.Index.Build(pts)
	t.buf.add(t.layer+".Build", t0, time.Now(), int64(len(pts)))
}

func (t *timedIndex) BatchInsert(pts []psi.Point) {
	t0 := time.Now()
	t.Index.BatchInsert(pts)
	t.buf.add(t.layer+".BatchInsert", t0, time.Now(), int64(len(pts)))
}

func (t *timedIndex) BatchDelete(pts []psi.Point) {
	t0 := time.Now()
	t.Index.BatchDelete(pts)
	t.buf.add(t.layer+".BatchDelete", t0, time.Now(), int64(len(pts)))
}

func (t *timedIndex) BatchDiff(ins, del []psi.Point) {
	t0 := time.Now()
	t.Index.BatchDiff(ins, del)
	t.buf.add(t.layer+".BatchDiff", t0, time.Now(), int64(len(ins)+len(del)))
}

func (t *timedIndex) KNN(q psi.Point, k int, dst []psi.Point) []psi.Point {
	t0 := time.Now()
	dst = t.Index.KNN(q, k, dst)
	t.buf.add(t.layer+".KNN", t0, time.Now(), int64(k))
	return dst
}

func (t *timedIndex) RangeCount(box psi.Box) int {
	t0 := time.Now()
	n := t.Index.RangeCount(box)
	t.buf.add(t.layer+".RangeCount", t0, time.Now(), int64(n))
	return n
}

func (t *timedIndex) RangeList(box psi.Box, dst []psi.Point) []psi.Point {
	t0 := time.Now()
	before := len(dst)
	dst = t.Index.RangeList(box, dst)
	t.buf.add(t.layer+".RangeList", t0, time.Now(), int64(len(dst)-before))
	return dst
}
