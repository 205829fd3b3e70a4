package obs

import (
	"slices"
	"time"
)

// Slow-query log: the serving layer records every command slower than
// its -slowlog threshold into a preallocated ring, capturing the
// command, its raw request line, the duration, and the query's cost
// (candidate points scanned, pinned epoch). It is the
// ring FlushTrace records into (ring.go), arguments copied into a fixed
// in-entry buffer, so a burst of slow queries from many connections
// records without shared locking or allocation. Snapshots back
// /debug/slowlog and the SLOWLOG protocol command, newest first.

// QueryCost is one query's work, filled by the Collection that ran it:
// Candidates counts the geometric hits the index reported before ID
// resolution, Epoch the epoch of the version the query pinned (always 0
// over a single copy).
type QueryCost struct {
	Candidates int
	Epoch      uint64
}

// SlowArgsCap is the per-entry argument capture limit: request lines
// longer than this are truncated (and flagged) rather than allocated
// for.
const SlowArgsCap = 240

// SlowQuery is one copied-out slow-log entry (the read-side form:
// Snapshot allocates these; the in-ring storage is fixed-size).
type SlowQuery struct {
	Seq        uint64 `json:"seq"`
	UnixNano   int64  `json:"unix_nano"`
	DurNs      int64  `json:"dur_ns"`
	Cmd        string `json:"cmd"`
	Args       string `json:"args"`
	Truncated  bool   `json:"truncated,omitempty"`
	Candidates int    `json:"candidates"`
	Epoch      uint64 `json:"epoch"`
}

// SlowLog is the slow-query ring. The nil receiver is safe on Record
// and Total.
type SlowLog struct{ r ring[slowEntry] }

// slowEntry is one in-ring slow query: fixed-size, so recording copies
// instead of allocating.
type slowEntry struct {
	unix  int64
	durNs int64
	cmd   string
	nArgs int
	trunc bool
	args  [SlowArgsCap]byte
	cost  QueryCost
}

// NewSlowLog returns a ring retaining the last capacity entries
// (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	l := new(SlowLog)
	l.r.init(capacity)
	return l
}

// Record stores one slow query, overwriting the oldest when the ring is
// full. cmd must be a constant (it is retained by reference); args is
// copied (truncated to SlowArgsCap bytes). Record is safe for
// concurrent use and does not allocate.
func (l *SlowLog) Record(cmd string, args []byte, d time.Duration, cost QueryCost) {
	if l == nil {
		return
	}
	e := slowEntry{
		unix:  time.Now().UnixNano(),
		durNs: d.Nanoseconds(),
		cmd:   cmd,
		trunc: len(args) > SlowArgsCap,
		cost:  cost,
	}
	e.nArgs = copy(e.args[:], args)
	l.r.put(e)
}

// Total returns the number of slow queries ever recorded.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.r.seq.Load()
}

// Snapshot copies the retained entries out, newest first (the SLOWLOG
// convention).
func (l *SlowLog) Snapshot() []SlowQuery {
	if l == nil {
		return nil
	}
	out := snapshot(&l.r, func(seq uint64, e *slowEntry) SlowQuery {
		return SlowQuery{
			Seq:        seq,
			UnixNano:   e.unix,
			DurNs:      e.durNs,
			Cmd:        e.cmd,
			Args:       string(e.args[:e.nArgs]),
			Truncated:  e.trunc,
			Candidates: e.cost.Candidates,
			Epoch:      e.cost.Epoch,
		}
	})
	slices.Reverse(out)
	return out
}
