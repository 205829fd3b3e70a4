// Package repl streams committed WAL windows from a leader psid to
// follower replicas. The unit of replication is exactly the unit of
// durability: the netted flush window the write-ahead log journals —
// at most one op per ID, strictly increasing sequence numbers — so a
// follower is just a Collection replaying the same committed BatchDiff
// windows the leader applied, and every layer above the window (epochs,
// snapshot reads, metrics, the follower's own local WAL) works
// unchanged.
//
// The wire protocol is deliberately close to the on-disk one. Both
// sides open with an 8-byte magic; after that everything is frames:
//
//	type byte | u32le payloadLen | u32le crc32(payload) | payload
//
// A window frame's payload is a uvarint leader term followed
// byte-for-byte by the wal.log record payload (wal.EncodeWindowPayload),
// so there is one window encoding and one fuzz surface for state that
// crosses a trust boundary. IDs are strings, as psid's wire protocol
// has them, encoded the one way the WAL encodes them. The handshake is
// a FOLLOW frame carrying the follower's last applied sequence (its
// WAL's recovered LastSeq — resume is free), the highest leader term it
// has adopted, a stable follower identity for the leader's
// per-follower metric series and, when the follower streamed the window
// at that sequence itself, the window's checksum. The
// leader answers HELLO (its head sequence and its term) and then either
// streams the retained log tail or, when the follower is behind the
// retention horizon (or ahead of a rebuilt leader, or carries an older
// term, or applied a different window at its sequence than the one the
// leader retains there), a full snapshot — a wal.snap image encoded
// under the Collection's flush lock, sent as SNAP_BEGIN / SNAP_DATA* /
// SNAP_END and installed by the follower as its own wal.snap — followed
// by the tail. PING frames
// carry the leader's head sequence while idle; ACK frames flow back
// with the follower's applied sequence and feed the leader's lag
// gauges.
//
// Terms fence deposed leaders. The term is a monotonic promotion
// counter journaled in the WAL snapshot: a follower refuses a HELLO
// whose term is below its own, refuses any WINDOW frame whose term
// differs from the session's HELLO term (severing the session without
// applying), and adopts a higher term only through a snapshot bootstrap
// — which persists it. A leader that receives a FOLLOW carrying a
// higher term than its own has been deposed: it refuses the session and
// reports the term upward (LeaderOptions.OnDeposed) so the service can
// fence itself read-only.
//
// Consistency contract: followers are eventually consistent — a window
// is visible on a follower only after the leader committed (and, per
// its fsync policy, journaled) it, shipped it, and the follower's own
// flush applied it. Ordering is strict: a follower applies window seq
// n+1 only after n, never skips, and never re-applies (duplicates are
// counted and dropped). docs/replication.md has the full protocol and
// failure-mode walkthrough; internal/service wires this package into
// psid as -repl (leader) / -replica-of (follower).
package repl

import "time"

// Magic opens both directions of a replication connection, versioning
// the protocol: a follower pointed at a non-replication port (or a leader
// of an earlier version: v1 had no terms, v2 sent snapshots as window
// payloads) fails loudly at byte 8 instead of misparsing frames.
const Magic = "PSIREPL3"

// Frame types. The zero value is invalid so a zeroed header never
// passes for a frame.
const (
	fmFollow    byte = 1 + iota // f→l: uvarint lastSeq | uvarint term | uvarint idLen | id [| u32le crc32(window at lastSeq)]
	fmHello                     // l→f: uvarint leaderSeq | uvarint leaderTerm
	fmSnapBegin                 // l→f: uvarint snapSeq (the image's seq must match it)
	fmSnapData                  // l→f: the next bytes of the wal.snap image
	fmSnapEnd                   // l→f: empty; the image is complete
	fmWindow                    // l→f: uvarint term | wal window payload (uvarint seq | uvarint nOps | ops)
	fmPing                      // l→f: uvarint leaderSeq (idle heartbeat, lag source)
	fmAck                       // f→l: uvarint appliedSeq
	fmMax                       // first invalid type
)

const (
	// maxFrameBytes caps one frame's payload. Window frames track the
	// WAL's own record bound; snapshot chunks are snapChunkBytes, far
	// below it. The limit exists so a corrupt or hostile length prefix
	// cannot make the decoder allocate gigabytes.
	maxFrameBytes = 1 << 26

	// snapChunkBytes is how many bytes of a snapshot image ride in one
	// SNAP_DATA frame, and so the size of the leader's frame scratch.
	snapChunkBytes = 64 << 10

	// defaultPingInterval is the leader's idle heartbeat cadence.
	defaultPingInterval = 2 * time.Second

	// readTimeout bounds a silent peer: several missed heartbeats (leader
	// side: several missed acks) before the connection is declared dead.
	// Outright closes are detected immediately; the timeout only matters
	// for links that black-hole traffic.
	readTimeout = 15 * time.Second

	// writeTimeout bounds one frame write to a stalled peer.
	writeTimeout = 10 * time.Second

	// dialTimeout bounds one follower connection attempt.
	dialTimeout = 5 * time.Second

	// defaultBackoffMin and defaultBackoffMax bound the follower's
	// reconnect backoff, which doubles from min to max and resets after
	// a healthy session.
	defaultBackoffMin = 50 * time.Millisecond
	defaultBackoffMax = 2 * time.Second

	// MaxFollowerIDLen caps the follower identity in the FOLLOW frame —
	// it becomes a metric label value, not a buffer to fill.
	MaxFollowerIDLen = 256
)
