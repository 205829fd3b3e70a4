package obs

import "time"

// Flush-pipeline tracing: each Collection flush records one FlushSpan —
// per-stage wall times plus window statistics — into a preallocated ring
// (ring.go), so concurrent recorders never contend beyond the ring's
// sequence counter and recording a span allocates nothing.
// /debug/flushtrace reads it oldest first.

// Flush stage indices into FlushSpan.Stages. Stages a mode does not run
// stay zero: locked-mode flushes have no replay/publish/drain.
const (
	// StageNet is window netting and planning: reducing the raw op log
	// to the surviving (ins, del) batches.
	StageNet = iota
	// StageLog is the durability commit: encoding the netted window
	// into the write-ahead log and (policy permitting) fsyncing it —
	// zero when the layer runs without a WAL.
	StageLog
	// StageReplay is the unpin of the displaced view, after the write lock
	// is released (snapshot mode only).
	StageReplay
	// StageApply is the new window's index application (plus, for a
	// Collection under locked reads, the wait for the write lock and the
	// table step).
	StageApply
	// StagePublish is what runs under the write lock (snapshot mode only):
	// the Collection's table step and the version swap.
	StagePublish
	// StageDrain is the wait for the write lock, which waits out the reads
	// in flight (snapshot mode only).
	StageDrain
	// NumStages is the stage count.
	NumStages
)

// StageNames maps stage indices to their short names, in order.
var StageNames = [NumStages]string{"net", "log", "replay", "apply", "publish", "drain"}

// FlushSpan is one recorded flush. Layer identifies the recorder
// ("collection"); Stages holds per-stage wall time in
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
type FlushTrace struct{ r ring[FlushSpan] }

// NewFlushTrace returns a ring retaining the last capacity spans
// (minimum 1).
func NewFlushTrace(capacity int) *FlushTrace {
	t := new(FlushTrace)
	t.r.init(capacity)
	return t
}

// Record stores one span, overwriting the oldest when the ring is full.
// It is safe for concurrent use and does not allocate.
func (t *FlushTrace) Record(span FlushSpan) {
	if t == nil {
		return
	}
	t.r.put(span)
}

// Total returns the number of spans ever recorded.
func (t *FlushTrace) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.r.seq.Load()
}

// Snapshot copies the retained spans out, oldest first, each carrying
// the sequence number Record assigned it.
func (t *FlushTrace) Snapshot() []FlushSpan {
	if t == nil {
		return nil
	}
	return snapshot(&t.r, func(seq uint64, sp *FlushSpan) FlushSpan {
		out := *sp
		out.Seq = seq
		return out
	})
}
