package service

// Replication wiring: how a Server becomes a leader (Options.ReplListen)
// or a read-only follower (Options.ReplicaOf) of the internal/repl
// log-shipping protocol, and how those roles change at runtime — the
// PROMOTE/DEMOTE/FOLLOW admin commands and the term-fencing contract
// around them. Both roles require the WAL — replication ships exactly
// the committed flush windows the WAL journals, in the same encoding,
// and a follower's resume position after a restart IS its recovered WAL
// sequence. docs/replication.md has the full contract; cmd/psid
// surfaces the knobs as -repl / -replica-of / -repl-id.
//
// Leader: the journal hook gains one step — after the WAL append, the
// committed window is published to the repl.Hub (still under the flush
// lock, so the hub head and the committed state can never disagree).
// Follower bootstraps read the state through Collection.Checkpoint with
// the hub sequence captured inside, the same lock-consistency trick.
//
// Follower: the repl.Follower session goroutine is the only writer, and
// it never touches the client tape: each received window is one
// Collection.CommitWindow under the LEADER's sequence (journaled by
// wal.Log.AppendWindowAt), a bootstrap is one Collection.Load. Client
// SET/DEL/FLUSH are refused with CodeReadonly, so the tape stays empty
// and the interval flusher ticks over nothing; GET/NEARBY/WITHIN serve
// the replicated state through the usual epoch-pinned snapshot path.
//
// Roles are a tiny state machine, driven by operators (and tested as a
// table in repl_failover_test.go):
//
//	none ───────────────────────── fixed for the process's life
//	follower ──PROMOTE──▶ leader         (term bumps, journaled)
//	follower ──FOLLOW────▶ follower      (re-pointed at a new leader)
//	leader ──DEMOTE──────▶ fenced        (operator-initiated)
//	leader ──(deposed)───▶ fenced        (saw a higher term on the wire)
//	fenced ──FOLLOW──────▶ follower      (rejoins the promoted timeline)
//
// Fencing: every role transition that creates a new writable timeline
// (PROMOTE) bumps the monotonic leader term, which rides in every
// replication handshake and window frame. A deposed leader refuses
// writes with CodeFenced — accepting one could fork acknowledged
// history — and followers sever streams from lower-term leaders before
// applying anything (internal/repl has the wire-level checks).

import (
	"errors"
	"fmt"
	"iter"
	"net"

	"repro/internal/collection"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/wal"
)

// replRole is the server's replication role, stored in Server.role.
// The numeric values are the psi_repl_role gauge's encoding and must
// not be reordered.
type replRole int32

const (
	// roleNone: no replication configured; reads and writes serve
	// locally and the role never changes.
	roleNone replRole = iota
	// roleLeader: accepts writes, journals them, fans committed windows
	// out to followers.
	roleLeader
	// roleFollower: read-only; the replication applier is the only
	// writer.
	roleFollower
	// roleFenced: an ex-leader deposed by a higher term (or DEMOTE).
	// Reads serve the frozen state; writes are refused with CodeFenced
	// until FOLLOW rejoins it to the promoted timeline.
	roleFenced
)

func (r replRole) String() string {
	switch r {
	case roleLeader:
		return "leader"
	case roleFollower:
		return "follower"
	case roleFenced:
		return "fenced"
	}
	return "none"
}

// validateRepl rejects contradictory replication configurations before
// any resource is opened. ReplListen plus ReplicaOf is NOT one of them:
// that combination is a hot standby — start as a follower, with the
// listen address PROMOTE will bind.
func (o Options) validateRepl() error {
	if (o.ReplListen != "" || o.ReplicaOf != "") && o.WALDir == "" {
		return errors.New("psid: replication requires a write-ahead log (set WALDir; replication ships and resumes from journaled windows)")
	}
	return nil
}

// initialRole derives the boot-time role from the options (NewDurable
// stores it before any goroutine runs).
func (o Options) initialRole() replRole {
	switch {
	case o.ReplicaOf != "":
		return roleFollower
	case o.ReplListen != "":
		return roleLeader
	}
	return roleNone
}

// roleIs reports whether the server currently holds r.
func (s *Server) roleIs(r replRole) bool { return replRole(s.role.Load()) == r }

// leaderHintAddr returns the last-known leader address ("" when there
// is no hint — a deposed leader that only ever saw a term, never an
// address).
func (s *Server) leaderHintAddr() string {
	if v := s.leaderHint.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// rejectWrite is the dispatch guard for SET/DEL/FLUSH: nil when this
// server accepts writes, else the readonly/fenced error (carrying the
// leader hint) to return instead.
func (s *Server) rejectWrite(op string) *result {
	switch replRole(s.role.Load()) {
	case roleFollower:
		r := errResultf(CodeReadonly, "%s: this server is a read-only replica; write to the leader", op)
		r.leader = s.leaderHintAddr()
		return &r
	case roleFenced:
		r := errResultf(CodeFenced, "%s: this server was deposed by a higher-term leader; writes are fenced (FOLLOW the new leader to rejoin)", op)
		r.leader = s.leaderHintAddr()
		return &r
	}
	return nil
}

// journalHook builds the durability hook installed on the Collection.
// One closure serves every role: the window is journaled under the
// sequence the Collection passes (a follower's CommitWindow passes the
// leader's; a Flush passes 0, "the next one"), and a leader then fans
// out the very bytes the log framed. The hub read is safe lockless: it
// is written before the leader role is stored, and only read after the
// role is observed.
func (s *Server) journalHook(l *wal.Log) func(seq uint64, ops []wal.Op) error {
	return func(seq uint64, ops []wal.Op) error {
		payload, err := l.AppendWindowAt(seq, ops)
		if err != nil {
			s.walFail(err)
			return err
		}
		if s.roleIs(roleLeader) {
			// Still under the flush lock: the hub head advances in lockstep
			// with the WAL, so a concurrent Checkpoint sees both or neither.
			s.hub.Publish(l.LastSeq(), payload)
		}
		return nil
	}
}

// newHub builds the leader's catch-up ring with its head at the WAL's
// recovered sequence, so a follower already there resumes with an empty
// tail instead of a snapshot.
func (s *Server) newHub() *repl.Hub {
	return repl.NewHub(s.wal.LastSeq(), s.opts.ReplRetainWindows, repl.DefaultRetainBytes)
}

// newLeader builds the leader endpoint over the current hub. Its series
// are the Server's (registerReplMetrics), like every incarnation's.
func (s *Server) newLeader() *repl.Leader {
	return repl.NewLeader(repl.LeaderOptions{
		Hub:        s.hub,
		Snapshot:   s.replSnapshot,
		Term:       s.wal.Term,
		OnDeposed:  s.deposed,
		OnFollower: s.registerFollowerMetrics,
		Logf:       s.opts.Logf,
	})
}

// newFollower builds the follower session loop against addr.
func (s *Server) newFollower(addr string) *repl.Follower {
	return repl.NewFollower(replApplier{s}, repl.FollowerOptions{
		Addr: addr,
		ID:   s.opts.ReplID,
		Logf: s.opts.Logf,
	})
}

// replTotals is both roles' replication counters in the shape /stats
// reports them.
type replTotals struct {
	lead repl.LeaderStats
	foll repl.FollowerStatus
}

// add folds another incarnation's counters into t; the gauges (positions,
// connection states) are not summable and stay as they are.
func (t *replTotals) add(o replTotals) {
	t.lead.Connects += o.lead.Connects
	t.lead.SnapshotsSent += o.lead.SnapshotsSent
	t.lead.WindowsSent += o.lead.WindowsSent
	t.lead.BytesSent += o.lead.BytesSent
	t.foll.Reconnects += o.foll.Reconnects
	t.foll.Bootstraps += o.foll.Bootstraps
	t.foll.Windows += o.foll.Windows
	t.foll.Duplicates += o.foll.Duplicates
}

// replNow is what the psi_repl_* series read: the gauges of the current
// leader and follower incarnations (zero where there is none) and
// counters cumulative over every incarnation this process has had.
func (s *Server) replNow() replTotals {
	s.replMu.Lock()
	lead, foll, past := s.replLead, s.replFoll, s.replPast
	s.replMu.Unlock()
	var cur replTotals
	if lead != nil {
		cur.lead = lead.Stats()
	}
	if foll != nil {
		cur.foll = foll.Status()
	}
	cur.add(past)
	return cur
}

// flag is a boolean gauge's value.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// registerReplMetrics registers, once and on the Server, the series of
// both roles: PROMOTE and FOLLOW replace the Leader and Follower at
// runtime, a registry panics on duplicate registration, and a promoted
// standby must export what a boot-time leader does (and a rejoined
// ex-leader what a boot-time follower does).
func (s *Server) registerReplMetrics(reg *obs.Registry) {
	gauge := func(name, help string, get func(replTotals) uint64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(get(s.replNow())) })
	}
	counter := func(name, help string, get func(replTotals) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return get(s.replNow()) })
	}
	gauge("psi_repl_followers_connected", "Follower connections currently streaming.",
		func(t replTotals) uint64 { return uint64(t.lead.Connected) })
	counter("psi_repl_connects_total", "Follower connections accepted (handshake completed).",
		func(t replTotals) uint64 { return t.lead.Connects })
	counter("psi_repl_snapshots_sent_total", "Full-state bootstraps streamed to followers.",
		func(t replTotals) uint64 { return t.lead.SnapshotsSent })
	counter("psi_repl_windows_sent_total", "Committed windows shipped to followers (counted per follower).",
		func(t replTotals) uint64 { return t.lead.WindowsSent })
	counter("psi_repl_bytes_sent_total", "Window and snapshot payload bytes shipped to followers.",
		func(t replTotals) uint64 { return t.lead.BytesSent })
	gauge("psi_repl_connected", "1 while the replication session to the leader is up.",
		func(t replTotals) uint64 { return flag(t.foll.Connected) })
	gauge("psi_repl_leader_seq", "Leader head sequence as of the last HELLO or PING.",
		func(t replTotals) uint64 { return t.foll.LeaderSeq })
	gauge("psi_repl_applied_seq", "Last leader window applied locally.",
		func(t replTotals) uint64 { return t.foll.AppliedSeq })
	gauge("psi_repl_lag_windows", "Leader head minus applied sequence.",
		func(t replTotals) uint64 { return t.foll.LagWindows })
	counter("psi_repl_reconnects_total", "Sessions re-established after the first of a follower incarnation.",
		func(t replTotals) uint64 { return t.foll.Reconnects })
	counter("psi_repl_bootstraps_total", "Full-state snapshot bootstraps received.",
		func(t replTotals) uint64 { return t.foll.Bootstraps })
	counter("psi_repl_windows_applied_total", "Committed leader windows applied.",
		func(t replTotals) uint64 { return t.foll.Windows })
	counter("psi_repl_duplicates_skipped_total", "Already-applied windows received and dropped.",
		func(t replTotals) uint64 { return t.foll.Duplicates })
}

// registerFollowerMetrics is the Leader's OnFollower hook: the first
// time any leader incarnation of this process sees follower id, its
// labelled series are registered; they read through whichever
// incarnation is current (zero when it does not know id).
func (s *Server) registerFollowerMetrics(id string) {
	if _, seen := s.replSeen.LoadOrStore(id, struct{}{}); seen {
		return
	}
	gauge := func(name, help string, get func(repl.FollowerInfo) uint64) {
		s.reg.GaugeFunc(name, help, func() float64 {
			for _, f := range s.replNow().lead.Followers {
				if f.ID == id {
					return float64(get(f))
				}
			}
			return 0
		}, obs.Label{Key: "follower", Value: id})
	}
	gauge("psi_repl_follower_acked_seq", "Last window sequence this follower acknowledged applying.",
		func(f repl.FollowerInfo) uint64 { return f.AckedSeq })
	gauge("psi_repl_follower_lag_windows", "Committed windows this follower has not acknowledged.",
		func(f repl.FollowerInfo) uint64 { return f.LagWindows })
	gauge("psi_repl_follower_connected", "1 while this follower is connected.",
		func(f repl.FollowerInfo) uint64 { return flag(f.Connected) })
}

// startRepl binds the boot-time replication role during Start, after
// openWAL has recovered state: the leader listener starts accepting
// followers, or the follower starts dialing its leader.
func (s *Server) startRepl() error {
	switch replRole(s.role.Load()) {
	case roleLeader:
		ln, err := net.Listen("tcp", s.opts.ReplListen)
		if err != nil {
			return fmt.Errorf("psid: listen repl %s: %w", s.opts.ReplListen, err)
		}
		lead := s.newLeader()
		lead.Serve(ln)
		s.replMu.Lock()
		s.replLead = lead
		s.replMu.Unlock()
	case roleFollower:
		foll := s.newFollower(s.opts.ReplicaOf)
		foll.Start()
		s.replMu.Lock()
		s.replFoll = foll
		s.replMu.Unlock()
	}
	return nil
}

// Promote flips a running follower into the replication leader, in
// place: stop the session against the old leader, bump and journal the
// leader term (the WAL snapshot is the durability of the promotion),
// seed the catch-up hub from the recovered sequence, and start accepting
// followers on addr (or Options.ReplListen when addr is empty). On
// return the server accepts writes; acknowledged windows from the
// follower life are all present — they were applied and journaled
// before the old session stopped.
//
// Errors leave the server's role untouched, with one documented
// exception: a failed term snapshot aborts the promotion after the
// follower session has stopped, but that failure also marks the WAL
// failed, which is already fatal for the process (see Server.Fatal).
func (s *Server) Promote(addr string) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	switch replRole(s.role.Load()) {
	case roleLeader:
		return errors.New("already the leader (double promote?)")
	case roleFenced:
		return errors.New("this server was deposed; FOLLOW the current leader instead")
	case roleNone:
		return errors.New("not a replica (start with -replica-of, optionally plus -repl as the standby listen address)")
	}
	if addr == "" {
		addr = s.opts.ReplListen
	}
	if addr == "" {
		return errors.New("no listen address (pass addr, or start with -repl)")
	}
	// Bind before any state changes so an unusable address aborts cleanly.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	// Stop the old session: after Stop returns no apply is in flight,
	// and the WAL's last sequence is the new timeline's base.
	s.replFoll.Stop()
	s.replPast.add(replTotals{foll: s.replFoll.Status()})
	s.replFoll = nil
	// The term bump is what fences the old leader; the snapshot is what
	// makes it survive a crash (term rides in the snapshot header).
	s.wal.SetTerm(s.wal.Term() + 1)
	if err := s.SnapshotWAL(); err != nil {
		ln.Close()
		s.walFail(err)
		return fmt.Errorf("journaling term %d: %w", s.wal.Term(), err)
	}
	s.hub = s.newHub()
	lead := s.newLeader()
	lead.Serve(ln)
	s.replLead = lead
	s.leaderHint.Store("")
	s.role.Store(int32(roleLeader))
	s.roleChanges.Add(1)
	if s.opts.Logf != nil {
		s.opts.Logf("psid: promoted to leader, term %d, repl listener %s", s.wal.Term(), ln.Addr())
	}
	return nil
}

// Demote fences a running leader: writes are refused with CodeFenced
// from the next command on. The replication listener stays up so
// still-attached followers drain what was already committed and then
// idle; FOLLOW converts this server into a follower of the promoted
// node. addr, when non-empty, is recorded as the leader hint returned
// with fenced errors.
func (s *Server) Demote(addr string) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if !s.roleIs(roleLeader) {
		return errors.New("not the leader")
	}
	if addr != "" {
		s.leaderHint.Store(addr)
	}
	s.role.Store(int32(roleFenced))
	s.roleChanges.Add(1)
	if s.opts.Logf != nil {
		s.opts.Logf("psid: demoted at term %d; writes fenced", s.wal.Term())
	}
	return nil
}

// deposed is the repl.Leader's OnDeposed callback: a follower's
// handshake carried a higher term, so another node has been promoted
// and accepting writes here could fork acknowledged history. It runs on
// a replication connection goroutine, so it must not block, take
// replMu, or call back into the Leader (Close waits on that very
// goroutine) — it only CASes the role, which the dispatch path reads on
// the next write.
func (s *Server) deposed(term uint64) {
	if s.role.CompareAndSwap(int32(roleLeader), int32(roleFenced)) {
		s.roleChanges.Add(1)
		if s.opts.Logf != nil {
			s.opts.Logf("psid: deposed by leader term %d (local term %d); writes fenced", term, s.wal.Term())
		}
	}
}

// Follow re-points this server's replication at addr. On a follower it
// severs the current session and redials (the handshake resumes, or
// bootstraps across a term boundary). On a fenced ex-leader it shuts
// the leader machinery, commits what the old timeline still had pending
// (so that no op of it can surface beside a replicated window) and
// joins the promoted timeline as a follower — the first session's
// snapshot bootstrap is what discards any unreplicated tail the old
// timeline had and adopts the new term. On an
// active leader it errors: DEMOTE first, so stepping a leader down is
// always an explicit, logged decision.
func (s *Server) Follow(addr string) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	switch replRole(s.role.Load()) {
	case roleFollower:
		s.replFoll.SetAddr(addr)
		s.leaderHint.Store(addr)
		if s.opts.Logf != nil {
			s.opts.Logf("psid: re-pointed at leader %s", addr)
		}
		return nil
	case roleLeader:
		return errors.New("this server is the leader; DEMOTE it first")
	case roleNone:
		return errors.New("not a replica (start with -replica-of)")
	}
	// fenced → follower.
	if s.replLead != nil {
		s.replLead.Close()
		s.replPast.add(replTotals{lead: s.replLead.Stats()})
		s.replLead = nil
	}
	// The tape has taken nothing since the fence; whatever it took before
	// belongs to the old timeline and commits there, now.
	s.coll.Flush()
	f := s.newFollower(addr)
	s.replFoll = f
	s.leaderHint.Store(addr)
	s.role.Store(int32(roleFollower))
	s.roleChanges.Add(1)
	f.Start()
	if s.opts.Logf != nil {
		s.opts.Logf("psid: rejoining as follower of %s (local term %d)", addr, s.wal.Term())
	}
	return nil
}

// stopRepl is Shutdown's replication tail, run before the Collection's
// final flush: the follower must stop first so no apply (and no journal
// append under a leader sequence) is in flight when the WAL folds its
// final snapshot.
func (s *Server) stopRepl() {
	s.replMu.Lock()
	f, l := s.replFoll, s.replLead
	s.replMu.Unlock()
	if f != nil {
		f.Stop()
	}
	if l != nil {
		l.Close()
	}
}

// ReplAddr returns the bound replication listener address (nil unless
// this server is — or, fenced, was — a leader).
func (s *Server) ReplAddr() net.Addr {
	s.replMu.Lock()
	l := s.replLead
	s.replMu.Unlock()
	if l == nil {
		return nil
	}
	return l.Addr()
}

// replSnapshot is the leader's bootstrap capture: the full committed
// state as Set ops, plus the hub sequence it folds. Checkpoint holds
// the flush lock, and the hub only advances under that lock (the
// journal hook), so reading the hub head inside the callback pins an
// exactly-consistent (state, seq) pair.
func (s *Server) replSnapshot() (uint64, []wal.Op, error) {
	var seq uint64
	var entries []wal.Op
	s.coll.Checkpoint(func(objects int, it iter.Seq2[string, geom.Point]) {
		seq = s.hub.LastSeq()
		entries = make([]wal.Op, 0, objects)
		for id, p := range it {
			entries = append(entries, wal.Op{ID: id, P: p})
		}
	})
	return seq, entries, nil
}

// replApplier adapts the Server to repl.Applier: the follower session
// goroutine commits the leader's windows into the Collection, each
// journaled under the leader's sequence so the WAL's recovered sequence
// doubles as the replication resume point.
type replApplier struct{ s *Server }

// AppliedSeq is the follower's durable position: the last leader window
// journaled locally (which recovery restores after a crash, making the
// resume handshake exact across restarts).
func (a replApplier) AppliedSeq() uint64 { return a.s.wal.LastSeq() }

// Term is the highest leader term this replica has adopted — recovered
// from the WAL snapshot, advanced only by Bootstrap (or a local
// Promote). The Follower sends it in every handshake so stale leaders
// are refused.
func (a replApplier) Term() uint64 { return a.s.wal.Term() }

// ApplyWindow commits one leader window as it arrived: journal under
// seq, apply, publish the epoch. A failed journal append, or a window that
// holds a point outside the universe, is returned — the session is severed
// and AppliedSeq has not moved. The repl.Follower guarantees seq ==
// AppliedSeq()+1.
func (a replApplier) ApplyWindow(seq uint64, ops []wal.Op) error {
	if a.s.walFailed.Load() {
		return errors.New("local wal failed; refusing to advance the replicated state")
	}
	if err := a.s.windowInUniverse(ops); err != nil {
		return fmt.Errorf("window %d: %w", seq, err)
	}
	return a.s.coll.CommitWindow(seq, ops)
}

// Bootstrap replaces the full local state with the leader's snapshot —
// one Load, pending ops of an earlier life discarded with it — then
// persists the new baseline, and the leader term it belongs to, as a
// WAL snapshot at the leader's sequence, which may regress below the
// local one (a rebuilt or wiped leader), all the way to zero. Adopting
// the term here, atomically with the state it governs, is the
// follower's only term transition: after this snapshot lands, a restart
// recovers both together and stale pre-promotion leaders are refused
// from the first handshake.
func (a replApplier) Bootstrap(seq, term uint64, entries []wal.Op) error {
	s := a.s
	if s.walFailed.Load() {
		return errors.New("local wal failed; refusing to bootstrap")
	}
	err := collection.Recover(s.coll, func(fold func(wal.Op)) error {
		for _, e := range entries {
			fold(e)
		}
		return nil
	}, s.inUniverse)
	if err != nil {
		return fmt.Errorf("bootstrap at %d: %w", seq, err)
	}
	s.wal.SetTerm(term)
	err = s.checkpoint(func() uint64 { return seq })
	if err != nil {
		s.walFail(err)
	}
	return err
}

// ReplPayload is the replication block of /stats: the role, the adopted
// leader term, and the role-specific counters.
type ReplPayload struct {
	// Role is "leader", "follower", or "fenced" (an ex-leader deposed by
	// a higher term, refusing writes).
	Role string `json:"role"`
	// Term is the leader term this server has adopted (bumped by its own
	// promotion, or carried by the bootstrap that joined it to a
	// promoted timeline).
	Term uint64 `json:"term"`
	// RoleChanges counts role transitions this process: promotions,
	// demotions, deposals, fenced→follower rejoins.
	RoleChanges uint64               `json:"role_changes"`
	Leader      *repl.LeaderStats    `json:"leader,omitempty"`
	Follower    *repl.FollowerStatus `json:"follower,omitempty"`
}

// replStats snapshots the replication block (nil when the server
// replicates nothing).
func (s *Server) replStats() *ReplPayload {
	role := replRole(s.role.Load())
	if role == roleNone {
		return nil
	}
	s.replMu.Lock()
	lead, foll := s.replLead, s.replFoll
	s.replMu.Unlock()
	p := &ReplPayload{
		Role:        role.String(),
		Term:        s.wal.Term(),
		RoleChanges: s.roleChanges.Load(),
	}
	switch {
	case foll != nil:
		st := foll.Status()
		p.Follower = &st
	case lead != nil:
		st := lead.Stats()
		p.Leader = &st
	}
	return p
}
