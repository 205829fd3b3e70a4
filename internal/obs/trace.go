package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Flush-pipeline tracing: each Collection/Shard flush records one
// FlushSpan — per-stage wall times plus window statistics — into a
// preallocated ring. Recording claims a slot with one atomic increment
// and writes it under that slot's own mutex, so concurrent recorders
// (per-shard flushes, independent layers) never contend on shared state
// beyond the sequence counter, and recording a span allocates nothing:
// the span is passed by value into storage that exists for the ring's
// lifetime. Readers (/debug/flushtrace) copy slots out under the
// per-slot locks and may allocate freely.

// Flush stage indices into FlushSpan.Stages. Stages a mode does not run
// stay zero: locked-mode flushes have no replay/publish/drain, the shard
// layer nets nothing (its window was already netted a layer up).
const (
	// StageNet is window netting and planning: reducing the raw op log
	// to the surviving (ins, del) batches — for the shard layer, the
	// parallel partitioning of the batch into per-shard sub-batches.
	StageNet = iota
	// StageLog is the durability commit: encoding the netted window
	// into the write-ahead log and (policy permitting) fsyncing it —
	// zero when the layer runs without a WAL.
	StageLog
	// StageReplay is what runs once the displaced copy's readers have
	// drained (snapshot mode only): the Collection's table step, then the
	// displaced twin's adoption of the published index.
	StageReplay
	// StageApply is the new window's index application (plus, for a
	// Collection under locked reads, the table step).
	StageApply
	// StagePublish is the epoch publish: the atomic version swing.
	StagePublish
	// StageDrain is the wait for readers pinned to the displaced
	// version (snapshot mode only).
	StageDrain
	// NumStages is the stage count.
	NumStages
)

// StageNames maps stage indices to their short names, in order.
var StageNames = [NumStages]string{"net", "log", "replay", "apply", "publish", "drain"}

// FlushSpan is one recorded flush. Layer identifies the recorder
// ("collection", "shard"); Stages holds per-stage wall time in
// nanoseconds; RawOps/NettedOps/Cancelled describe the window before and
// after netting (RawOps - Cancelled mutations survived netting as
// NettedOps index mutations); Epoch is the published epoch after the
// flush (0 in locked mode). Seq is assigned by Record.
type FlushSpan struct {
	Seq       uint64
	Layer     string
	Start     int64 // UnixNano at flush start
	Stages    [NumStages]int64
	RawOps    int
	NettedOps int
	Cancelled int
	Epoch     uint64
}

// Stamp accumulates the wall time since t into Stages[stage] and returns
// the current time, so a recorder threads one clock through consecutive
// stage boundaries. A nil span records nothing and reads no clock, so
// flush code stamps unconditionally and pays nothing without a registry.
func (sp *FlushSpan) Stamp(stage int, t time.Time) time.Time {
	if sp == nil {
		return t
	}
	now := time.Now()
	sp.Stages[stage] += now.Sub(t).Nanoseconds()
	return now
}

// Dur returns the span's total recorded stage time.
func (sp *FlushSpan) Dur() time.Duration {
	var total int64
	for _, ns := range sp.Stages {
		total += ns
	}
	return time.Duration(total)
}

// FlushTrace is the span ring. The nil receiver is safe on Record.
type FlushTrace struct {
	seq   atomic.Uint64
	slots []traceSlot
}

type traceSlot struct {
	mu   sync.Mutex
	used bool
	span FlushSpan
}

// NewFlushTrace returns a ring retaining the last capacity spans
// (minimum 1).
func NewFlushTrace(capacity int) *FlushTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &FlushTrace{slots: make([]traceSlot, capacity)}
}

// Record stores one span, overwriting the oldest when the ring is full.
// It is safe for concurrent use and does not allocate.
func (t *FlushTrace) Record(span FlushSpan) {
	if t == nil {
		return
	}
	seq := t.seq.Add(1)
	span.Seq = seq
	slot := &t.slots[(seq-1)%uint64(len(t.slots))]
	slot.mu.Lock()
	slot.span = span
	slot.used = true
	slot.mu.Unlock()
}

// Total returns the number of spans ever recorded.
func (t *FlushTrace) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Snapshot copies the retained spans out, oldest first. Spans recorded
// concurrently with the copy may appear out of their final order but are
// never torn (each slot is copied under its lock); the result is sorted
// by sequence number.
func (t *FlushTrace) Snapshot() []FlushSpan {
	if t == nil {
		return nil
	}
	out := make([]FlushSpan, 0, len(t.slots))
	for i := range t.slots {
		slot := &t.slots[i]
		slot.mu.Lock()
		if slot.used {
			out = append(out, slot.span)
		}
		slot.mu.Unlock()
	}
	// Insertion sort by Seq: the ring is nearly ordered already (one
	// rotation), and snapshot sizes are ring-capacity bounded.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
