// Package wal is the durability layer under psi.Collection: an
// append-only write-ahead log of committed flush windows, plus periodic
// full snapshots that truncate it. The Collection's netted per-flush
// window — last-write-wins per ID, at most one op per object — is
// already an ordered, idempotent replication unit, so the log needs no
// op-level framing of its own: one length-prefixed, CRC32-guarded
// record per committed window, replayed in sequence order at startup.
//
// Files (one generation, in the WAL directory):
//
//	wal.snap  full state at some window seq S: every live (ID, point)
//	wal.log   the windows committed after S, one record each
//
// Recovery (Open) streams the latest valid snapshot and then the log tail
// with seq > S to a fold its caller supplies, one op at a time — the
// package never holds the dataset — and, because a crash can land
// mid-write, truncates a torn or corrupt final record instead of failing: everything before
// the tear is intact by CRC, everything after it was never
// acknowledged under the always-fsync policy. A bad record with a
// valid record after it is not a tear — it is corruption of journaled
// history, and Open fails rather than dropping it. Both files are replaced
// atomically (write-temp, fsync, rename, fsync directory), so a crash
// during a snapshot or log rotation leaves the previous generation
// untouched.
//
// Durability is governed by the fsync policy: FsyncAlways syncs every
// appended window before the append returns (acknowledged == durable),
// FsyncInterval syncs on a timer (bounded loss window), FsyncNever
// leaves syncing to the kernel (contents survive process crashes but
// not host crashes). docs/durability.md spells out the guarantee per
// policy; cmd/psid exposes the choice as -fsync.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// FsyncPolicy selects when appended windows are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs inside every AppendWindowAt: when the append
	// returns, the window is on disk. The only policy under which an
	// acknowledged write is guaranteed to survive power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval marks appended windows dirty and syncs on a timer
	// (Options.Interval): at most one interval of acknowledged writes
	// can be lost to a host crash. Process crashes lose nothing — the
	// data is already in the page cache.
	FsyncInterval
	// FsyncNever never calls fsync on append (Close still syncs).
	// Survives process crashes, not host crashes.
	FsyncNever
)

// String returns the policy's -fsync spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsync parses a -fsync flag value: "always", "never", or a
// duration ("100ms") selecting FsyncInterval at that cadence.
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return FsyncAlways, 0, nil
	case "never":
		return FsyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: bad fsync policy %q (want always, never, or a positive duration)", s)
	}
	return FsyncInterval, d, nil
}

// DefaultInterval is the FsyncInterval cadence when Options.Interval is
// unset.
const DefaultInterval = 100 * time.Millisecond

// maxRecordBytes bounds one record's payload on both ends: an encoder
// refusing larger windows and a decoder treating larger length prefixes
// as corruption. Far above any real window (a window op is tens of
// bytes).
const maxRecordBytes = 1 << 30

// maxRetainedBuf caps the append scratch kept between windows: one
// enormous window must not pin its encode buffer forever.
const maxRetainedBuf = 1 << 22

// ErrClosed is returned by appends and snapshots after Close.
var ErrClosed = errors.New("wal: closed")

// Options tunes a Log. The zero value is usable: FsyncAlways, default
// interval, no metrics.
type Options struct {
	// Fsync is the append durability policy (see the policy constants).
	Fsync FsyncPolicy
	// Interval is the FsyncInterval cadence; <= 0 selects
	// DefaultInterval. Ignored by the other policies.
	Interval time.Duration
	// Obs, when set, registers the WAL series (psi_wal_*: append and
	// fsync counters, log size and seq gauges, fsync latency
	// histogram). Recording is atomics only — appends stay
	// allocation-free with a live registry.
	Obs *obs.Registry
	// OnError receives errors from the background fsync loop (the
	// FsyncInterval policy's timer goroutine — there is no caller to
	// return them to). Synchronous append/snapshot errors are returned
	// to the caller and not reported here. The callback runs on the
	// loop goroutine and must not call back into the Log.
	OnError func(error)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	return o
}

// Log is one open WAL generation: the append handle on wal.log plus the
// snapshot machinery. Create one with Open; all methods are safe for
// concurrent use (appends, snapshots, and the fsync timer serialize on
// one mutex — the Collection already serializes appends under its flush
// lock, so the mutex is uncontended in practice).
type Log struct {
	dir       string
	opts      Options
	maxRecord int // append bound on one record payload: maxRecordBytes; a test lowers it

	mu     sync.Mutex // guards f, buf, snapBuf, err, closed, and file mutation order
	f      *os.File
	buf    []byte
	err    error // sticky: after a failed write/fsync, durability is gone
	closed bool
	// snapBuf is the buffer every snapshot is written through, made by the
	// first one.
	snapBuf *bufio.Writer

	seq      atomic.Uint64 // last appended window seq
	snapSeq  atomic.Uint64 // window seq covered by the durable snapshot
	term     atomic.Uint64 // leader term journaled with the next snapshot
	logBytes atomic.Int64

	appends   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	snapshots atomic.Uint64
	errors    atomic.Uint64
	dirty     atomic.Bool // unsynced appends (FsyncInterval)

	fsyncDur *obs.Hist // nil without a registry

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

const (
	logName  = "wal.log"
	snapName = "wal.snap"
)

// Open opens (creating if absent) the WAL in dir and runs recovery: it
// hands fold the surviving state as a stream of ops, in order — the
// snapshot's entries as Sets, then the ops of every log record past the
// snapshot's seq, with any torn final record truncated — so that folding
// them last-write-wins per ID gives the state; the returned Recovery
// accounts for them, and the Log is positioned to append the next window.
// Only checksummed data reaches fold, and an op's ID is a view of a read
// buffer that the next op may overwrite: fold copies what it keeps. A nil
// fold discards the ops.
//
// A hard error (an unreadable directory, a corrupt snapshot, a log with a
// foreign header, a bad record with valid ones after it) fails Open rather
// than silently serving an empty dataset — possibly after some ops went to
// fold, which its caller then drops.
func Open(dir string, opts Options, fold func(Op)) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if fold == nil {
		fold = func(Op) {}
	}
	rec := &Recovery{}
	if err := readSnapshot(filepath.Join(dir, snapName), rec, fold); err != nil {
		return nil, nil, err
	}
	logPath := filepath.Join(dir, logName)
	if err := replayLog(logPath, rec, fold); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, maxRecord: maxRecordBytes, f: f, stop: make(chan struct{})}
	l.seq.Store(rec.Seq)
	l.snapSeq.Store(rec.SnapshotSeq)
	l.term.Store(rec.Term)
	l.logBytes.Store(size)
	if opts.Obs != nil {
		l.registerMetrics(opts.Obs)
	}
	if opts.Fsync == FsyncInterval {
		l.wg.Add(1)
		go l.fsyncLoop()
	}
	return l, rec, nil
}

// LastSeq returns the sequence number of the last appended (or
// recovered) window — the resume point a replication follower hands the
// leader in its FOLLOW handshake. Zero means the log has never held a
// window: a follower there bootstraps from the beginning without error.
func (l *Log) LastSeq() uint64 { return l.seq.Load() }

// Term returns the leader term this log carries: the value recovered
// from the snapshot at Open, as updated by SetTerm since.
func (l *Log) Term() uint64 { return l.term.Load() }

// SetTerm records a new leader term. The term is journaled with the
// next snapshot (v2 format), so callers that need the term durable —
// promotion must not acknowledge before its term can survive a restart
// — follow SetTerm with a snapshot write.
func (l *Log) SetTerm(t uint64) { l.term.Store(t) }

// AppendWindowAt appends one committed flush window — the Collection's
// netted ops, at most one per ID — as a single framed record under seq,
// and (under FsyncAlways) syncs it to disk before returning. seq 0
// assigns the next sequence number (a leader's flush); a replication
// follower passes the leader's seq, so its recovered LastSeq is directly
// the resume point for the next FOLLOW handshake. A non-zero seq must
// exceed LastSeq — replay requires strictly increasing seqs (gaps are
// legal in the file; the follower's stream protocol rejects them
// earlier) — so the caller appends windows in commit order (the
// Collection's flush lock already guarantees this). The ops slice is not
// retained.
//
// The returned payload is the record payload just framed — exactly
// EncodeWindowPayload's bytes — so a replication leader ships what it
// journaled without encoding the window again. It aliases the log's
// encode buffer: valid until the next append, copy to keep.
func (l *Log) AppendWindowAt(seq uint64, ops []Op) (payload []byte, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch last := l.seq.Load(); {
	case seq == 0:
		seq = last + 1
	case seq <= last:
		return nil, fmt.Errorf("wal: AppendWindowAt seq %d not above last seq %d", seq, last)
	}
	if l.closed {
		return nil, ErrClosed
	}
	if l.err != nil {
		// A previous write or fsync failed: the tail of the log is in an
		// unknown state, so no further append may claim durability.
		return nil, l.err
	}
	buf := l.buf
	if cap(buf) < frameLen {
		buf = make([]byte, frameLen)
	} else {
		buf = buf[:frameLen] // putFrame overwrites all 8 bytes below
	}
	buf = EncodeWindowPayload(buf, seq, ops)
	payload = buf[frameLen:]
	if len(payload) > l.maxRecord {
		// Sticky like any other append failure: this window's ops will
		// never reach the log, so letting later windows append would
		// leave a silent gap (seqs are reassigned, so replay could not
		// detect the missing window).
		l.fail(fmt.Errorf("window of %d ops encodes to %d bytes, above the %d-byte record bound",
			len(ops), len(payload), l.maxRecord))
		return nil, l.err
	}
	putFrame(buf[:frameLen], payload)
	if _, err := l.f.Write(buf); err != nil {
		l.fail(err)
		return nil, l.err
	}
	if cap(buf) <= maxRetainedBuf {
		l.buf = buf[:0]
	} else {
		l.buf = nil
	}
	l.seq.Store(seq)
	l.logBytes.Add(int64(len(buf)))
	l.appends.Add(1)
	l.bytes.Add(uint64(len(buf)))
	switch l.opts.Fsync {
	case FsyncAlways:
		if err := l.syncLocked(); err != nil {
			return nil, err
		}
	case FsyncInterval:
		l.dirty.Store(true)
	}
	return payload, nil
}

// syncLocked fsyncs the log file and records the latency (mu held).
func (l *Log) syncLocked() error {
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return l.err
	}
	l.fsyncs.Add(1)
	l.dirty.Store(false)
	if l.fsyncDur != nil {
		l.fsyncDur.Record(time.Since(t0))
	}
	return nil
}

// fail records a write/fsync failure: the first error sticks (every
// later append returns it) so an acknowledgement can never be issued
// over a log whose tail state is unknown.
func (l *Log) fail(err error) {
	l.errors.Add(1)
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
}

func (l *Log) fsyncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !l.dirty.Load() {
				continue
			}
			l.mu.Lock()
			var err error
			if !l.closed && l.err == nil {
				err = l.syncLocked()
			}
			l.mu.Unlock()
			if err != nil && l.opts.OnError != nil {
				l.opts.OnError(err)
			}
		case <-l.stop:
			return
		}
	}
}

// WriteSnapshotAt atomically replaces the snapshot with the given state
// at seq — n entries pushed by the iterator — and truncates the log by
// rotating in a fresh one, bounding replay time and disk use. A crash at
// any point leaves a recoverable pair: both replacements are write-temp,
// fsync, rename.
//
// The state must be exactly the fold of every window up to seq. A
// checkpoint passes LastSeq from inside Collection.Checkpoint, whose
// flush lock keeps any window from committing mid-snapshot. A
// replication follower installing a leader-sent bootstrap passes the
// leader's seq, which belongs to the leader's history, not this log's:
// it can regress, down to 0 for an empty leader. The log's seq is reset
// to seq, even backwards; the rotation makes that safe, because the log
// is empty afterwards, so recovery sees only the snapshot seq and
// records above it.
func (l *Log) WriteSnapshotAt(seq uint64, n int, entries iter.Seq2[string, geom.Point]) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.snapBuf == nil {
		l.snapBuf = bufio.NewWriterSize(nil, ioBuf)
	}
	if err := writeSnapshotFile(filepath.Join(l.dir, snapName), l.snapBuf, l.term.Load(), seq, n, entries); err != nil {
		l.fail(err)
		return l.err
	}
	// The snapshot at seq is durable: every logged window is now
	// redundant, so rotate in an empty log. A crash before the rotation
	// rename replays the old log over the snapshot — records with
	// seq <= snapSeq are skipped, so the overlap is harmless.
	nf, err := createLogFile(filepath.Join(l.dir, logName))
	if err != nil {
		l.fail(err)
		return l.err
	}
	l.f.Close()
	l.f = nf
	l.logBytes.Store(magicLen)
	l.seq.Store(seq)
	l.snapSeq.Store(seq)
	l.snapshots.Add(1)
	return nil
}

// AppendsSinceSnapshot returns the number of windows appended since the
// last durable snapshot — zero means a snapshot would be a no-op, which
// the service's timer loop uses to skip idle rewrites.
func (l *Log) AppendsSinceSnapshot() uint64 {
	return l.seq.Load() - l.snapSeq.Load()
}

// Close syncs and closes the log (stopping the fsync timer first).
// Idempotent; appends after Close return ErrClosed.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil {
		err = l.f.Sync()
		if err == nil {
			l.fsyncs.Add(1)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a point-in-time snapshot of the log's counters, assembled
// from atomics (safe to sample during an append or snapshot).
type Stats struct {
	Seq           uint64 // last appended window seq
	SnapshotSeq   uint64 // window seq the durable snapshot covers
	Term          uint64 // leader term (journaled with snapshots)
	LogBytes      int64  // current wal.log size
	Appends       uint64 // windows appended this process
	AppendedBytes uint64 // record bytes appended this process
	Fsyncs        uint64
	Snapshots     uint64 // snapshots written this process
	Errors        uint64 // write/fsync/snapshot failures
	Policy        string
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	return Stats{
		Seq:           l.seq.Load(),
		SnapshotSeq:   l.snapSeq.Load(),
		Term:          l.term.Load(),
		LogBytes:      l.logBytes.Load(),
		Appends:       l.appends.Load(),
		AppendedBytes: l.bytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Snapshots:     l.snapshots.Load(),
		Errors:        l.errors.Load(),
		Policy:        l.opts.Fsync.String(),
	}
}

// registerMetrics exposes the WAL series on reg. Everything reads the
// Log's own atomics; nothing here runs on the append path.
func (l *Log) registerMetrics(reg *obs.Registry) {
	layer := obs.Label{Key: "layer", Value: "wal"}
	reg.CounterFunc("psi_wal_appends_total",
		"Committed flush windows appended to the write-ahead log.",
		l.appends.Load, layer)
	reg.CounterFunc("psi_wal_bytes_total",
		"Record bytes appended to the write-ahead log.",
		l.bytes.Load, layer)
	reg.CounterFunc("psi_wal_fsync_total",
		"fsync calls issued by the write-ahead log.",
		l.fsyncs.Load, layer)
	reg.CounterFunc("psi_wal_snapshots_total",
		"Full snapshots written (each truncates the log).",
		l.snapshots.Load, layer)
	reg.CounterFunc("psi_wal_errors_total",
		"Write, fsync, and snapshot failures (the first one sticks).",
		l.errors.Load, layer)
	reg.GaugeFunc("psi_wal_seq",
		"Last appended window sequence number.",
		func() float64 { return float64(l.seq.Load()) }, layer)
	reg.GaugeFunc("psi_wal_log_bytes",
		"Current size of wal.log (falls to the header at each snapshot).",
		func() float64 { return float64(l.logBytes.Load()) }, layer)
	l.fsyncDur = reg.Histogram("psi_wal_fsync_duration_ns",
		"fsync latency in nanoseconds.", layer)
}
