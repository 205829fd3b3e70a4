// Package service implements psid, the network serving layer over
// psi.Collection: a concurrent geospatial server that exposes the full
// moving-object API — SET/DEL/GET/NEARBY/WITHIN/STATS/FLUSH/SLOWLOG,
// plus the PROMOTE/DEMOTE/FOLLOW failover admin commands —
// over a newline-delimited JSON command protocol on TCP, plus HTTP
// probe endpoints for dashboards: /healthz, /stats, /metrics
// (Prometheus text exposition), /debug/flushtrace and /debug/slowlog
// (see docs/observability.md).
//
// The paper's stack ends at the process boundary: indexes (§3, §4) are
// batch-synchronous, the Sharded/Collection layers make them safe
// for in-process concurrency, and this package is the front door that
// turns the library into a system. The design follows the shape of
// real-world moving-object services (Tile38 and friends): one goroutine
// per connection feeding an ID-keyed coalescing log, so that N clients
// streaming SETs become the paper's parallel BatchDiff at every flush —
// socket concurrency is converted into exactly the batch parallelism the
// indexes are built for.
//
// Concurrency and consistency: every connection handler calls straight
// into one shared Collection, so the service inherits its visibility
// contract — mutations become visible to NEARBY/WITHIN atomically at the
// flush that applies them (MaxBatch, FlushInterval, or an explicit FLUSH
// command), while GET is read-your-writes through the pending overlay.
// A FLUSH issued by any client is a barrier for all of them.
//
// The wire protocol (one JSON object per line, one response line per
// request line, in order) is documented command by command in
// docs/protocol.md; this file defines the wire types.
package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Command names. Dispatch is case-insensitive; these are the canonical
// uppercase spellings used in docs and STATS keys.
const (
	OpSet    = "SET"    // {"op":"SET","id":...,"p":[x,y]}       → {"ok":true}
	OpDel    = "DEL"    // {"op":"DEL","id":...}                 → {"ok":true}
	OpGet    = "GET"    // {"op":"GET","id":...}                 → {"ok":true,"found":true,"p":[x,y]}
	OpNearby = "NEARBY" // {"op":"NEARBY","p":[x,y],"k":10}      → {"ok":true,"hits":[...]}
	OpWithin = "WITHIN" // {"op":"WITHIN","lo":[..],"hi":[..]}   → {"ok":true,"hits":[...]}
	OpStats  = "STATS"  // {"op":"STATS"}                        → {"ok":true,"stats":{...}}
	OpFlush  = "FLUSH"  // {"op":"FLUSH"}                        → {"ok":true,"applied":n}
	// OpSlowlog returns the retained slow-query entries, newest first
	// (requires the server to run with a slow-query threshold; see
	// Options.SlowLog). Errors with bad_request when the log is disabled.
	OpSlowlog = "SLOWLOG" // {"op":"SLOWLOG"}                     → {"ok":true,"slow":[...]}
	// OpPromote flips a running follower into the replication leader, in
	// place: the session against the old leader stops, the leader term is
	// bumped and journaled, a replication listener starts (on "addr", or
	// the -repl address the process was started with), and client writes
	// are accepted from the next command on. docs/replication.md
	// ("Failover") has the full contract.
	OpPromote = "PROMOTE" // {"op":"PROMOTE","addr":":7601"}       → {"ok":true}
	// OpDemote fences a running leader: writes are refused with "fenced"
	// from the next command on (the replication listener stays up so
	// still-attached followers drain). "addr", when present, is recorded
	// as the new leader hint returned with fenced errors.
	OpDemote = "DEMOTE" // {"op":"DEMOTE","addr":"host:port"}    → {"ok":true}
	// OpFollow re-points a follower at a new leader address at runtime
	// (severing the current session), or converts a fenced ex-leader into
	// a follower of the promoted node. Errors on an active leader —
	// DEMOTE it first.
	OpFollow = "FOLLOW" // {"op":"FOLLOW","addr":"host:port"}    → {"ok":true}
)

// Error codes carried in Response.Code when OK is false.
const (
	// CodeBadRequest covers malformed JSON, unknown ops, and invalid
	// arguments (missing id, wrong point dimensionality, k <= 0, an
	// inverted WITHIN box). The connection stays usable.
	CodeBadRequest = "bad_request"
	// CodeTooLarge means the request line exceeded the server's line
	// limit. The oversized line is discarded to its newline and the
	// connection stays usable.
	CodeTooLarge = "too_large"
	// CodeShutdown means the server is draining and no longer accepts
	// commands on this connection.
	CodeShutdown = "shutdown"
	// CodeUnavailable means the server cannot honor the command's
	// contract right now — today, a SET/DEL under -fsync always after
	// the write-ahead log has failed: the op may be in memory, but the
	// durability receipt the ack stands for cannot be issued. The
	// server also turns its health probe red (see /healthz); clients
	// should fail over rather than retry.
	CodeUnavailable = "unavailable"
	// CodeReadonly means the command mutates state but this server is a
	// read-only replica (started with -replica-of, or re-pointed with
	// FOLLOW): the replication stream from the leader is its only writer.
	// Send SET/DEL/FLUSH to the leader — the response's "leader" field
	// carries its address when known; GET/NEARBY/WITHIN are served here
	// from the replicated state. The connection stays usable.
	CodeReadonly = "readonly"
	// CodeFenced means this server was the leader but has been deposed: a
	// higher leader term exists (it saw a follower carrying one, or an
	// operator sent DEMOTE), so accepting a write here could fork the
	// replicated timeline. Writes are refused until an operator re-points
	// it with FOLLOW; the "leader" field carries the new leader's address
	// when known. Reads still serve the (frozen) local state.
	CodeFenced = "fenced"
)

// Request is one command line. Unused fields are omitted per op; see the
// Op* constants and docs/protocol.md for which fields each op reads.
type Request struct {
	Op string `json:"op"`
	ID string `json:"id,omitempty"`
	// Addr is the host:port argument of PROMOTE (optional listen
	// override), DEMOTE (optional new-leader hint) and FOLLOW (required:
	// the leader to dial).
	Addr string `json:"addr,omitempty"`
	// P is a point: exactly Dims coordinates (2 or 3, fixed per server).
	P []int64 `json:"p,omitempty"`
	// Lo/Hi are the inclusive corners of a WITHIN box, Dims coordinates
	// each with Lo[d] <= Hi[d].
	Lo []int64 `json:"lo,omitempty"`
	Hi []int64 `json:"hi,omitempty"`
	K  int     `json:"k,omitempty"`
}

// Hit is one resolved query result: an object and its indexed position.
type Hit struct {
	ID string  `json:"id"`
	P  []int64 `json:"p"`
}

// Response is one reply line. OK is always present; every other field is
// op-specific and omitted when empty — in particular a GET miss is
// {"ok":true} with "found" omitted, and a FLUSH that applied nothing
// omits "applied".
type Response struct {
	OK   bool   `json:"ok"`
	Code string `json:"code,omitempty"` // error code, set when !OK
	Err  string `json:"err,omitempty"`  // human-readable error, set when !OK
	// Leader is the last-known leader address, set on readonly and fenced
	// errors so a client can redirect its writes without a topology
	// lookup. Empty when the server has no hint (a deposed leader that
	// only saw a higher term, never an address).
	Leader string  `json:"leader,omitempty"`
	Found  bool    `json:"found,omitempty"`
	P      []int64 `json:"p,omitempty"`
	Hits   []Hit   `json:"hits,omitempty"`
	// Applied is the number of index mutations (inserts + deletes) a
	// FLUSH committed.
	Applied int           `json:"applied,omitempty"`
	Stats   *StatsPayload `json:"stats,omitempty"`
	// Slow is the SLOWLOG response body: retained slow-query entries,
	// newest first.
	Slow []obs.SlowQuery `json:"slow,omitempty"`
}

// AsError converts an error response into a *ServerError (nil when OK).
func (r Response) AsError() error {
	if r.OK {
		return nil
	}
	return &ServerError{Code: r.Code, Msg: r.Err}
}

// ServerError is an error the server reported on the wire.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("psid: %s: %s", e.Code, e.Msg) }

// StatsPayload is the STATS response body, also served as JSON at the
// HTTP /stats endpoint. Collection counters are defined in
// internal/collection (Stats); per-op latency quantiles come from the
// server's lock-free histograms and are estimates with power-of-two
// bucket resolution.
type StatsPayload struct {
	Objects int `json:"objects"` // live tracked objects (after a flush)
	Pending int `json:"pending"` // enqueued ops not yet flushed
	// Epoch, Versions and RetireLag describe the snapshot-read state
	// (ARCHITECTURE.md "Epochs & snapshot reads"): the currently
	// published epoch (advances once per committed window; 0 when the
	// server runs the locked read path), the live state versions (2 when
	// snapshotting, 1 locked), and whether a commit is waiting for the
	// reads in flight to leave (1 while it does, 0 otherwise).
	Epoch     uint64 `json:"epoch"`
	Versions  int    `json:"versions"`
	RetireLag uint64 `json:"retire_lag"`
	// TableWaits counts the reads that arrived while a commit held or
	// waited for the readers' lock — its drain and table step, and under
	// locked reads its index apply too — and waited for it; TableWaitNs is
	// the time they spent waiting, so the quotient is the mean wait.
	TableWaits  uint64 `json:"table_waits"`
	TableWaitNs uint64 `json:"table_wait_ns"`
	Flushes     uint64 `json:"flushes"`
	Inserted    uint64 `json:"inserted"`
	Moved       uint64 `json:"moved"`
	Removed     uint64 `json:"removed"`
	// Cancelled counts ops superseded in-window by the Collection's
	// last-write-wins netting — the coalescing win of batching SETs.
	Cancelled uint64 `json:"cancelled"`
	// Cow is present when the two snapshot versions are handles on one
	// copy-on-write index (the SPaC family or P-Orth, sharded or not): what
	// windows have copied of it so far. Omitted under locked reads, where
	// there is one version.
	Cow *CowStats `json:"cow,omitempty"`
	// TableMappedBytes is what the Collection's slot table maps outside the
	// Go heap (collection.Stats), which the runtime's heap figures — the gc
	// block, psi_heap_* — leave out; 0 in builds that keep the table on the
	// heap.
	TableMappedBytes uint64 `json:"table_mapped_bytes"`
	// TableIDBytes is the size of the slot table's ID arena on the heap —
	// live IDs, removed ones awaiting compaction and room to append — and
	// TableIDDeadBytes the removed IDs' share (collection.Stats).
	TableIDBytes     uint64 `json:"table_id_bytes"`
	TableIDDeadBytes uint64 `json:"table_id_dead_bytes"`
	// PendingBytes is what the Collection's two pending windows hold on
	// the heap — records, ID bytes and indexes, at the capacity they have
	// grown to (collection.Stats).
	PendingBytes uint64  `json:"pending_bytes"`
	Conns        int     `json:"conns"`    // currently open client connections
	UptimeS      float64 `json:"uptime_s"` // seconds since Start
	// BadLines counts protocol-level rejects (unparseable or oversized
	// lines) that never reached a command handler.
	BadLines uint64 `json:"bad_lines"`
	// Ops maps canonical command names to their serving counters.
	Ops map[string]OpCounters `json:"ops"`
	// GC carries runtime allocation/GC counters when the server runs
	// with EnablePprof (psid -pprof); omitted otherwise — reading them
	// briefly stops the world, so they are opt-in like the profile
	// endpoints.
	GC *GCStats `json:"gc,omitempty"`
	// WAL carries the durability counters when the server runs with a
	// write-ahead log (psid -wal); omitted otherwise.
	WAL *WALStats `json:"wal,omitempty"`
	// Repl carries the replication role and counters when the server
	// runs as a leader (psid -repl) or follower (psid -replica-of);
	// omitted otherwise.
	Repl *ReplPayload `json:"repl,omitempty"`
}

// CowStats is the shared-index block of /stats: index nodes the commit
// windows copied on first touch, and the bytes of leaf entries copied with
// them, since start. Per window (divide by the change in flushes) both
// should sit far below the index size on small windows and approach it only
// when a window touches most leaves.
type CowStats struct {
	Nodes uint64 `json:"nodes"`
	Bytes uint64 `json:"bytes"`
}

// WALStats is the durability block of /stats, present when the server
// runs with Options.WALDir. Counter semantics follow wal.Stats; the
// recovery fields are the boot-time summary and never change while the
// process lives.
type WALStats struct {
	Policy string `json:"policy"` // fsync policy: always / 100ms / never
	// DurableAcks reports whether SET/DEL acknowledgments imply
	// on-disk durability (true only under fsync=always).
	DurableAcks bool `json:"durable_acks"`
	// Failed is the sticky WAL-failure flag: once true, durable acks
	// are refused and /healthz serves 503.
	Failed        bool   `json:"failed"`
	Seq           uint64 `json:"seq"`            // last journaled window
	SnapshotSeq   uint64 `json:"snapshot_seq"`   // window the snapshot covers
	LogBytes      int64  `json:"log_bytes"`      // current wal.log size
	Appends       uint64 `json:"appends"`        // windows journaled this process
	AppendedBytes uint64 `json:"appended_bytes"` // record bytes written this process
	Fsyncs        uint64 `json:"fsyncs"`
	Snapshots     uint64 `json:"snapshots"`
	Errors        uint64 `json:"errors"` // WAL-level write/sync/snapshot failures
	// JournalErrors counts flush windows the Collection committed in
	// memory but could not confirm durable (should track Errors).
	JournalErrors uint64      `json:"journal_errors"`
	Recovery      WALRecovery `json:"recovery"`
}

// GCStats is the runtime memory/GC snapshot served in /stats under
// -pprof: enough to watch steady-state allocation pressure (mallocs per
// served op should stay flat on a warm server) without pulling a full
// heap profile.
type GCStats struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	Frees           uint64  `json:"frees"`
	NumGC           uint32  `json:"num_gc"`
	PauseTotalMs    float64 `json:"pause_total_ms"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
}

// OpCounters is the per-command serving record.
type OpCounters struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

// point parses exactly dims wire coordinates into a geom.Point (unused
// slots zero, the library-wide convention that makes point equality value
// equality).
func point(cs []int64, dims int) (geom.Point, error) {
	if len(cs) != dims {
		return geom.Point{}, fmt.Errorf("want %d coordinates, got %d", dims, len(cs))
	}
	var p geom.Point
	copy(p[:], cs)
	return p, nil
}

// marshalLine renders v as one newline-terminated JSON line.
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Wire types marshal by construction; a failure is a programming
		// error surfaced as a protocol error line rather than a panic.
		b, _ = json.Marshal(Response{Code: CodeBadRequest, Err: fmt.Sprintf("marshal: %v", err)})
	}
	return append(b, '\n')
}
