// Package obs is the cross-layer observability subsystem: a zero-alloc
// metric registry (atomic counters, gauges, and the power-of-two latency
// histogram shared with the service layer) with Prometheus text
// exposition, a preallocated flush-span ring tracing the flush pipeline
// stage by stage, and a slow-query ring capturing individual outlier
// queries with their cost.
//
// Design rules, in priority order:
//
//  1. Recording is atomics into preallocated storage. Counter.Add,
//     Hist.Record, FlushTrace.Record and SlowLog.Record never allocate
//     and never take a registry-wide lock, so instrumented hot paths
//     (collection flushes, the serving loop) keep their AllocsPerRun
//     == 0 guarantees with a live registry attached.
//  2. Everything is optional. Every layer takes an optional *Registry;
//     nil disables all recording, and the nil receiver is safe on every
//     record-side method (a nil *Counter, *Hist, *FlushTrace, *SlowLog or
//     *Registry no-ops), so library users who pass no registry pay only a
//     nil check.
//  3. Reads may allocate. Exposition (WritePrometheus), ring snapshots
//     and quantile scans run on probe endpoints, not hot paths.
//
// The registry serves /metrics on psid's HTTP listener; the rings back
// /debug/flushtrace and /debug/slowlog plus the SLOWLOG command. The
// metric catalog lives in docs/observability.md.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {Key: "layer", Value: "collection"}.
// Series with the same name but different label values coexist in one
// family and expose as Prometheus labeled series.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing atomic counter. The nil receiver
// is safe: recording on a Counter from a nil registry is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on the nil receiver).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the bucket count of Hist: power-of-two nanosecond
// buckets spanning 1ns to ~8.6s, with the last bucket absorbing the tail.
const histBuckets = 34

// Hist is a lock-free histogram with power-of-two buckets: bucket i
// counts values v with 2^i <= v < 2^(i+1) (bucket 0 also takes v <= 1,
// the last bucket takes everything beyond ~2^33). It is the generalized
// form of the service layer's latency histogram: recording is three
// atomic adds, so any number of goroutines record without contention,
// and quantiles are read off the bucket counts with power-of-two
// resolution — plenty for p50/p99 reporting. Values are nanoseconds for
// latency series, plain counts otherwise (e.g. query fan-out width).
// The nil receiver is safe on Record/Observe.
type Hist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Record adds one duration observation (clamped to >= 1ns).
func (h *Hist) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Nanoseconds())
}

// Observe adds one raw observation (clamped to >= 1).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 1 {
		v = 1
	}
	i := bits.Len64(uint64(v)) - 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Hist) Sum() uint64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the q*count-th observation (nearest rank). Zero
// observations report zero. The result is a duration for latency series;
// callers tracking plain counts convert back.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total))) // nearest-rank
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return time.Duration(uint64(1) << (i + 1))
		}
	}
	return time.Duration(uint64(1) << histBuckets)
}

// Mean returns the exact mean (zero when empty).
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// metricKind discriminates the family types for exposition and for
// catching a name registered twice with different types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHist
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHist:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels    string // pre-rendered `k1="v1",k2="v2"` (escaped), "" when unlabeled
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Hist
}

// family is one metric name: its HELP text, kind, and every labeled
// series, in registration order (exposition is deterministic).
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and the shared flush-trace ring. Create
// one with New and hand it to every layer of one stack (each layer
// registers its series once, however many versions of its index a
// snapshot-mode stack keeps). Registration takes a registry lock;
// recording through the returned handles never does. The nil *Registry
// is safe on every method: registration returns nil handles (whose
// record methods no-op) and exposition writes nothing.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	byNam map[string]*family
	trace *FlushTrace
}

// DefaultFlushTraceCap is the slot count of the registry's flush-span
// ring: enough history to cover several seconds of steady flushing.
const DefaultFlushTraceCap = 256

// New returns an empty registry with a DefaultFlushTraceCap-slot flush
// trace.
func New() *Registry {
	return &Registry{
		byNam: make(map[string]*family),
		trace: NewFlushTrace(DefaultFlushTraceCap),
	}
}

// FlushTrace returns the registry's shared flush-span ring (nil on the
// nil registry — FlushTrace.Record is nil-safe, so recorders need no
// guard).
func (r *Registry) FlushTrace() *FlushTrace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Counter registers (or extends) a counter family and returns the series
// handle. Registering the same name+labels twice panics (programmer
// error, matching the library's validate conventions); nil registry
// returns a nil handle whose Add/Inc no-op.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, kindCounter, &series{counter: c}, labels)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — for layers that already maintain atomic counters.
// fn must be safe for concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, &series{counterFn: fn}, labels)
}

// GaugeFunc registers a gauge series read from fn at exposition time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, &series{gaugeFn: fn}, labels)
}

// Histogram registers a histogram family and returns the series handle
// (nil on the nil registry; Record/Observe no-op on it).
func (r *Registry) Histogram(name, help string, labels ...Label) *Hist {
	if r == nil {
		return nil
	}
	h := &Hist{}
	r.register(name, help, kindHist, &series{hist: h}, labels)
	return h
}

// RegisterHistogram exposes an externally owned Hist as a series — for
// recorders that keep their histograms in fixed arrays (the service's
// per-command metrics) and only want exposition.
func (r *Registry) RegisterHistogram(name, help string, h *Hist, labels ...Label) {
	if r == nil || h == nil {
		return
	}
	r.register(name, help, kindHist, &series{hist: h}, labels)
}

func (r *Registry) register(name, help string, kind metricKind, s *series, labels []Label) {
	validateName(name)
	for _, l := range labels {
		validateName(l.Key)
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byNam[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.fams = append(r.fams, f)
		r.byNam[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as both " + f.kind.String() + " and " + kind.String())
	}
	if _, dup := f.byKey[s.labels]; dup {
		panic("obs: duplicate series " + name + "{" + s.labels + "}")
	}
	f.byKey[s.labels] = s
	f.series = append(f.series, s)
}

// validateName panics unless name is a legal Prometheus metric or label
// name ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validateName(name string) {
	if len(name) == 0 {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			panic("obs: invalid metric or label name " + name)
		}
	}
}
