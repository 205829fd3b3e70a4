package repl

import (
	"hash/crc32"
	"sync"
)

// Retention defaults for the hub's in-memory window ring. The ring is
// the incremental catch-up horizon: a follower whose resume point has
// been evicted re-bootstraps from a snapshot instead, so retention
// trades leader memory against how long a follower may be gone and
// still catch up cheaply.
const (
	DefaultRetainWindows = 1 << 14
	DefaultRetainBytes   = 64 << 20
)

// Hub is the leader-side fan-out point: the Collection's journal hook
// publishes every committed window as the record payload the WAL just
// framed for it (wal.Log.AppendWindowAt hands it back, so a window is
// encoded once) and per-follower writers read the retained tail.
// Retention is bounded by window count and total encoded bytes;
// eviction only moves the snapshot/tail decision, never correctness.
//
// Publish is called under the Collection's flush lock, which is what
// makes the hub's head sequence consistent with the committed state: a
// Checkpoint (held for snapshot capture) and the hub can never disagree
// about which windows the state contains.
type Hub struct {
	mu      sync.Mutex
	wins    []hubWin // retained tail, ascending contiguous seqs
	bytes   int
	lastSeq uint64        // newest published (or initial recovered) seq
	pulse   chan struct{} // closed and replaced on every publish

	maxWindows int
	maxBytes   int
}

type hubWin struct {
	seq     uint64
	payload []byte // immutable once published; shared with writers lock-free
}

// NewHub returns a hub whose head starts at lastSeq — the leader WAL's
// recovered sequence, so a follower already at that point needs
// nothing. retainWindows/retainBytes <= 0 select the defaults.
func NewHub(lastSeq uint64, retainWindows, retainBytes int) *Hub {
	if retainWindows <= 0 {
		retainWindows = DefaultRetainWindows
	}
	if retainBytes <= 0 {
		retainBytes = DefaultRetainBytes
	}
	return &Hub{
		lastSeq:    lastSeq,
		pulse:      make(chan struct{}),
		maxWindows: retainWindows,
		maxBytes:   retainBytes,
	}
}

// Publish appends one committed window — its wal record payload, which
// carries seq — to the ring and wakes every waiting writer. The hub
// keeps a copy: payload is typically the log's encode buffer. seq must
// advance by exactly one per call (the WAL append it mirrors enforces
// monotonicity; the hub's tail must stay contiguous for TailFrom's gap
// logic to be exact).
func (h *Hub) Publish(seq uint64, payload []byte) {
	payload = append([]byte(nil), payload...)
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq != h.lastSeq+1 {
		// A journal hook bug, not a runtime condition: the WAL would have
		// rejected the append first.
		panic("repl: hub published non-contiguous window")
	}
	h.wins = append(h.wins, hubWin{seq: seq, payload: payload})
	h.bytes += len(payload)
	h.lastSeq = seq
	for len(h.wins) > h.maxWindows || (h.bytes > h.maxBytes && len(h.wins) > 1) {
		h.bytes -= len(h.wins[0].payload)
		h.wins[0] = hubWin{}
		h.wins = h.wins[1:]
	}
	close(h.pulse)
	h.pulse = make(chan struct{})
}

// LastSeq returns the newest published sequence (the recovered seq
// before any publish).
func (h *Hub) LastSeq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastSeq
}

// Pulse returns a channel closed at the next publish. Grab it BEFORE
// TailFrom: a publish between the two closes the returned channel, so
// the waiter wakes instead of sleeping through the window.
func (h *Hub) Pulse() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pulse
}

// Stats reports the ring occupancy for /stats.
func (h *Hub) Stats() (windows int, bytes int, lastSeq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.wins), h.bytes, h.lastSeq
}

// TailFrom appends the retained windows with seq > after to dst, oldest
// first, returning the new head cursor. gap reports that the tail
// cannot be served incrementally: the resume point has been evicted, or
// after is ahead of the head (a follower ahead of a rebuilt leader) —
// either way the caller must re-bootstrap the follower from a snapshot.
// The returned payloads are immutable and safe to write without the
// hub lock.
func (h *Hub) TailFrom(after uint64, dst [][]byte) (wins [][]byte, last uint64, gap bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after == h.lastSeq {
		return dst, after, false
	}
	if after > h.lastSeq {
		return dst, after, true
	}
	if len(h.wins) == 0 || h.wins[0].seq > after+1 {
		return dst, after, true
	}
	for _, w := range h.wins {
		if w.seq > after {
			dst = append(dst, w.payload)
		}
	}
	return dst, h.lastSeq, false
}

// SumAt returns the CRC-32 of the retained window payload at seq, and
// false when that window is not retained. A follower's FOLLOW carries
// the same checksum of the window it applied there, which is how the
// leader tells a resume point on its own history from the same seq on
// a history it has since lost.
func (h *Hub) SumAt(seq uint64) (uint32, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.wins) == 0 || seq < h.wins[0].seq || seq > h.lastSeq {
		return 0, false
	}
	return crc32.ChecksumIEEE(h.wins[seq-h.wins[0].seq].payload), true
}
