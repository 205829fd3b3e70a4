package service

// Durable serving: the wiring between the Collection's flush pipeline
// and the write-ahead log (internal/wal). With Options.WALDir set, the
// Server opens the WAL before taking traffic, loads the recovered
// state into the Collection, and installs the journal hook so every
// committed flush window hits disk before it is applied. Under
// -fsync always the dispatch path flushes before acknowledging SET/DEL,
// turning the protocol's {"ok":true} into a durability receipt; the
// flush lock makes concurrent writers' flushes pile up into one append
// + one fsync — group commit for free. docs/durability.md has the full
// contract; cmd/psid surfaces the knobs as -wal / -fsync /
// -snapshot-interval.

import (
	"errors"
	"fmt"
	"iter"
	"net"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wal"
)

// WALRecovery summarizes what startup recovery salvaged from the WAL
// directory, reported once at boot (cmd/psid logs it) and forever after
// in /stats under "wal".
type WALRecovery struct {
	// Objects is the number of live objects loaded (snapshot folded
	// with the replayed log tail).
	Objects int `json:"recovered_objects"`
	// Records is the number of valid log records replayed.
	Records int `json:"replayed_records"`
	// TruncatedBytes is the size of the torn log tail cut off during
	// recovery — nonzero after a crash mid-append, which is expected
	// and harmless (nothing in the tail was ever acknowledged under
	// fsync=always).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// RecoverMs is the wall time of recovery in milliseconds: reading
	// the snapshot and the log, folding them into the slot table and the
	// Build of the index.
	RecoverMs float64 `json:"recover_ms"`
}

// NewDurable is New with the WAL error surfaced: when Options.WALDir is
// set it opens (or creates) the log, loads the recovered state into the
// Collection, and arms the flush-commit journal before any connection
// can write. With WALDir unset it never fails and behaves exactly like
// New.
func NewDurable(idx core.Index, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.validateRepl(); err != nil {
		return nil, err
	}
	copts := collection.Options{
		MaxBatch:      opts.MaxBatch,
		FlushInterval: opts.FlushInterval,
		Obs:           opts.Obs,
	}
	s := &Server{
		opts:     opts,
		dims:     idx.Dims(),
		coll:     collection.New(idx, copts),
		universe: universeOf(idx),
		reg:      opts.Obs,
		conns:    make(map[net.Conn]struct{}),
		fatal:    make(chan error, 1),
	}
	s.role.Store(int32(opts.initialRole()))
	if opts.ReplicaOf != "" {
		s.leaderHint.Store(opts.ReplicaOf)
	}
	if opts.SlowLog > 0 {
		s.slow = obs.NewSlowLog(DefaultSlowLogSize)
	}
	if opts.WALDir != "" {
		if err := s.openWAL(); err != nil {
			s.coll.Close()
			return nil, err
		}
	}
	s.registerMetrics(s.reg)
	return s, nil
}

// openWAL opens the log, folding what it recovers straight into the
// Collection (collection.Recover: a fresh slot table and one Build, nothing
// journaled), and installs the journal hook. A recovered final state with
// a point outside the universe — a log written before SETs were checked —
// fails it and loads nothing: the index could not survive the Build.
func (s *Server) openWAL() error {
	opts := s.opts
	t0 := time.Now()
	var l *wal.Log
	var rec *wal.Recovery
	err := collection.Recover(s.coll, func(fold func(wal.Op)) (err error) {
		l, rec, err = wal.Open(opts.WALDir, wal.Options{
			Fsync:    opts.WALFsync,
			Interval: opts.WALFsyncInterval,
			Obs:      opts.Obs,
			OnError:  s.walFail,
		}, fold)
		return err
	}, s.inUniverse)
	switch {
	case l == nil:
		return fmt.Errorf("psid: wal: %w", err)
	case err != nil:
		l.Close()
		return fmt.Errorf("psid: wal: recovered %v", err)
	}
	s.wal = l
	s.recovered = WALRecovery{
		Objects:        s.coll.Len(),
		Records:        rec.Records,
		TruncatedBytes: rec.TruncatedBytes,
		RecoverMs:      float64(time.Since(t0).Microseconds()) / 1e3,
	}
	if s.roleIs(roleLeader) {
		// The hub's head starts at the recovered sequence, so a follower
		// already there resumes with an empty tail instead of a snapshot.
		// A standby (-repl plus -replica-of) starts follower-side; its
		// hub is built at promotion instead.
		s.hub = s.newHub()
	}
	s.coll.SetJournal(s.journalHook(l))
	s.durableAcks = opts.WALFsync == wal.FsyncAlways
	s.snapStop = make(chan struct{})
	s.snapWG.Add(1)
	go s.snapshotLoop(opts.WALSnapshotInterval)
	return nil
}

// walFail records the first WAL failure: the sticky flag flips the
// server unhealthy (healthz 503, durable acks refused), and the error
// lands on the Fatal channel for the binary's shutdown select. Safe
// from any goroutine, including the WAL's background fsync loop.
func (s *Server) walFail(err error) {
	s.walFailed.Store(true)
	select {
	case s.fatal <- err:
	default:
	}
}

// Fatal reports unrecoverable serving failures — today, the first WAL
// error (a failed journal append, background fsync, or snapshot). A
// server that cannot persist acknowledged writes should not keep
// accepting them as if it could: cmd/psid selects on this alongside
// SIGTERM and shuts down. The channel never closes and delivers at most
// one error.
func (s *Server) Fatal() <-chan error { return s.fatal }

// WALRecovered returns the boot-time recovery summary (zero when the
// server runs without a WAL).
func (s *Server) WALRecovered() WALRecovery { return s.recovered }

// snapshotLoop periodically folds the committed state into a fresh
// snapshot and truncates the log (wal.Log.WriteSnapshotAt), bounding
// restart replay time and disk use. Idle ticks — nothing appended since
// the last snapshot — are skipped, so a quiet server rewrites nothing.
func (s *Server) snapshotLoop(interval time.Duration) {
	defer s.snapWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.wal.AppendsSinceSnapshot() == 0 {
				continue
			}
			if err := s.SnapshotWAL(); err != nil && !errors.Is(err, wal.ErrClosed) {
				s.walFail(err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// SnapshotWAL writes a full-state WAL snapshot now and truncates the
// log. The state is captured under the Collection's flush lock
// (Collection.Checkpoint), so it is exactly the fold of every journaled
// window — which also means no flush (and under fsync=always, no
// SET/DEL ack) can complete until the snapshot is on disk; the write
// stall grows with dataset size (docs/durability.md, "Snapshots and log
// truncation", covers sizing -snapshot-interval around it). Errors if
// the server runs without a WAL.
func (s *Server) SnapshotWAL() (err error) {
	if s.wal == nil {
		return errors.New("psid: no write-ahead log configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.coll.Checkpoint(func(objects int, entries iter.Seq2[string, geom.Point]) {
		// Under the flush lock no window can append: the log's last seq
		// is the one the committed state folds.
		err = s.wal.WriteSnapshotAt(s.wal.LastSeq(), objects, entries)
	})
	return err
}

// commitDurable is the dispatch tail of SET/DEL under fsync=always: it
// flushes — journaling and fsyncing the window that includes this op —
// before the acknowledgment is written, and refuses the ack if the WAL
// has failed (the write may be in memory, but the durability contract
// can no longer be honored). Returns nil on the happy path so the
// caller's zero-alloc result flow is untouched; under the other
// policies (and without a WAL) it is a no-op.
func (s *Server) commitDurable() *result {
	if !s.durableAcks {
		return nil
	}
	s.coll.Flush()
	if s.walFailed.Load() {
		r := errResult(CodeUnavailable, "write-ahead log failed; refusing to acknowledge non-durable writes")
		return &r
	}
	return nil
}

// closeWAL is Shutdown's durability tail, after the Collection's final
// flush journaled the last window: stop the snapshot loop, fold the
// final state into a snapshot (truncating the log so the next boot
// replays nothing), and close the log. Once-guarded because Shutdown
// may run more than once.
func (s *Server) closeWAL() {
	if s.wal == nil {
		return
	}
	s.walOnce.Do(func() {
		close(s.snapStop)
		s.snapWG.Wait()
		if !s.walFailed.Load() && s.wal.AppendsSinceSnapshot() > 0 {
			if err := s.SnapshotWAL(); err != nil {
				s.walFail(err)
			}
		}
		if err := s.wal.Close(); err != nil {
			s.walFail(err)
		}
	})
}
