package repl

import (
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SnapshotFunc captures the leader's full committed state for a
// follower bootstrap: the sequence the state folds (which must be
// consistent with the hub — the service captures both under the
// Collection's flush lock via Checkpoint) and the state's wal.snap image
// (wal.WriteSnapshot) at that sequence and the leader's term. It may be
// called concurrently by several bootstrapping followers; each call
// encodes its own image.
type SnapshotFunc func() (seq uint64, image []byte, err error)

// LeaderOptions configures a Leader. Hub and Snapshot are required.
// Frames a follower sends are bounded by maxFrameBytes, reads and writes
// by readTimeout and writeTimeout, and an idle stream carries a PING
// every defaultPingInterval.
type LeaderOptions struct {
	Hub      *Hub
	Snapshot SnapshotFunc
	// Term supplies the leader's current term for handshakes and window
	// frames (the service wires it to the WAL's journaled term). Nil
	// means term 0 — a pre-failover topology where fencing never fires.
	Term func() uint64
	// OnDeposed is called (once per offending connection, possibly
	// concurrently) when a follower's FOLLOW frame carries a higher term
	// than Term(): another node has been promoted, and this leader must
	// fence itself. The callback runs on a connection goroutine and must
	// not block or call back into the Leader (in particular not Close —
	// Close waits for the very goroutine the callback runs on).
	OnDeposed func(term uint64)
	// OnFollower is called the first time this Leader sees a follower
	// identity (the one sent in the FOLLOW frame), on that follower's
	// connection goroutine and under the same rules as OnDeposed. The
	// service registers the follower's metric series from it; the numbers
	// themselves are in Stats.
	OnFollower func(id string)
	// Logf, when set, receives one line per follower connect, disconnect
	// and bootstrap (cmd/psid wires log.Printf).
	Logf func(format string, args ...any)
}

// FollowerInfo is one follower's replication position as the leader
// sees it, served in /stats.
type FollowerInfo struct {
	ID        string `json:"id"`
	Connected bool   `json:"connected"`
	AckedSeq  uint64 `json:"acked_seq"`
	// LagWindows is the hub head minus the acked seq: how many committed
	// windows this follower has not confirmed applying.
	LagWindows uint64 `json:"lag_windows"`
}

// LeaderStats is the leader-side replication block of /stats.
type LeaderStats struct {
	LastSeq         uint64         `json:"last_seq"`
	Connected       int            `json:"connected"`
	RetainedWindows int            `json:"retained_windows"`
	RetainedBytes   int            `json:"retained_bytes"`
	Connects        uint64         `json:"connects"`
	SnapshotsSent   uint64         `json:"snapshots_sent"`
	WindowsSent     uint64         `json:"windows_sent"`
	BytesSent       uint64         `json:"bytes_sent"`
	Followers       []FollowerInfo `json:"followers"`
}

// Leader accepts follower connections and streams them the committed
// window tail (or a snapshot first, when they are beyond the hub's
// retention horizon). Create one with NewLeader, bind it with Serve,
// stop it with Close.
type Leader struct {
	opts         LeaderOptions
	pingInterval time.Duration // defaultPingInterval; tests shorten it before Serve

	ln      net.Listener
	stop    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup

	mu      sync.Mutex
	entries map[string]*followerEntry // by follower identity, never removed (its position outlives a disconnect)

	connects      atomic.Uint64
	snapshotsSent atomic.Uint64
	windowsSent   atomic.Uint64
	bytesSent     atomic.Uint64
}

// followerEntry is one follower identity's persistent state: it
// survives disconnects so the acked position shown in /stats and on
// /metrics carries across a follower restart.
type followerEntry struct {
	id        string
	acked     atomic.Uint64
	connected atomic.Bool

	mu   sync.Mutex
	conn net.Conn // current connection, nil when disconnected
}

// NewLeader returns an unbound leader.
func NewLeader(opts LeaderOptions) *Leader {
	return &Leader{
		opts:         opts,
		pingInterval: defaultPingInterval,
		stop:         make(chan struct{}),
		entries:      make(map[string]*followerEntry),
	}
}

// Serve accepts followers on ln until Close. It returns immediately;
// streaming runs in per-connection goroutines.
func (l *Leader) Serve(ln net.Listener) {
	l.ln = ln
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by Close
			}
			l.wg.Add(1)
			go l.handleConn(conn)
		}
	}()
}

// Addr returns the bound listener address (nil before Serve).
func (l *Leader) Addr() net.Addr {
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// Close stops accepting, severs every follower connection, and waits
// for the per-connection goroutines to drain. Followers reconnect and
// resume against the next leader incarnation on their own.
func (l *Leader) Close() {
	if !l.closing.CompareAndSwap(false, true) {
		return
	}
	close(l.stop)
	if l.ln != nil {
		l.ln.Close()
	}
	l.mu.Lock()
	for _, e := range l.entries {
		e.mu.Lock()
		if e.conn != nil {
			e.conn.Close()
		}
		e.mu.Unlock()
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// Stats snapshots the leader-side replication counters for /stats.
func (l *Leader) Stats() LeaderStats {
	windows, bytes, last := l.opts.Hub.Stats()
	st := LeaderStats{
		LastSeq:         last,
		RetainedWindows: windows,
		RetainedBytes:   bytes,
		Connects:        l.connects.Load(),
		SnapshotsSent:   l.snapshotsSent.Load(),
		WindowsSent:     l.windowsSent.Load(),
		BytesSent:       l.bytesSent.Load(),
	}
	l.mu.Lock()
	for _, e := range l.entries {
		acked := e.acked.Load()
		info := FollowerInfo{ID: e.id, Connected: e.connected.Load(), AckedSeq: acked}
		if last > acked {
			info.LagWindows = last - acked
		}
		if info.Connected {
			st.Connected++
		}
		st.Followers = append(st.Followers, info)
	}
	l.mu.Unlock()
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].ID < st.Followers[j].ID })
	return st
}

func (l *Leader) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// term returns the leader's current term (0 without a supplier).
func (l *Leader) term() uint64 {
	if l.opts.Term == nil {
		return 0
	}
	return l.opts.Term()
}

// entryFor returns (creating on first sight, and reporting it to
// OnFollower) the persistent entry for a follower identity.
func (l *Leader) entryFor(id string) *followerEntry {
	l.mu.Lock()
	e, ok := l.entries[id]
	if !ok {
		e = &followerEntry{id: id}
		l.entries[id] = e
	}
	l.mu.Unlock()
	if !ok && l.opts.OnFollower != nil {
		l.opts.OnFollower(id)
	}
	return e
}

// handleConn serves one follower: handshake, optional snapshot
// bootstrap, then the window tail until the connection dies or the
// leader closes. The ack reader runs as a second goroutine on the same
// connection; either side failing closes the conn, which unblocks the
// other.
func (l *Leader) handleConn(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	rw := deadlineRW{c: conn, rt: readTimeout, wt: writeTimeout}

	var magic [len(Magic)]byte
	if _, err := io.ReadFull(rw, magic[:]); err != nil {
		return
	}
	if string(magic[:]) != Magic {
		l.logf("repl: %s: bad magic, dropping", conn.RemoteAddr())
		return
	}
	typ, payload, _, err := readFrame(rw, maxFrameBytes, nil)
	if err != nil || typ != fmFollow {
		return
	}
	fl, err := parseFollow(payload)
	if err != nil {
		l.logf("repl: %s: %v", conn.RemoteAddr(), err)
		return
	}
	followerSeq, followerTerm, followerID := fl.seq, fl.term, fl.id
	if followerID == "" {
		followerID = conn.RemoteAddr().String()
	}
	leaderTerm := l.term()
	if followerTerm > leaderTerm {
		// Fencing, leader side: this follower has adopted a newer
		// leader's term — we are deposed. Refuse the session (no HELLO,
		// no stream) and report upward so the service fences writes.
		l.logf("repl: follower %s (%s) carries term %d above ours (%d): deposed",
			followerID, conn.RemoteAddr(), followerTerm, leaderTerm)
		if l.opts.OnDeposed != nil {
			l.opts.OnDeposed(followerTerm)
		}
		return
	}
	e := l.entryFor(followerID)
	// Latest connection wins a contended identity: a follower that
	// reconnects before the leader noticed the old conn die must not be
	// refused, and two live conns sharing one series would interleave.
	e.mu.Lock()
	if e.conn != nil {
		e.conn.Close()
	}
	e.conn = conn
	e.mu.Unlock()
	e.connected.Store(true)
	e.acked.Store(followerSeq)
	l.connects.Add(1)
	defer func() {
		e.mu.Lock()
		if e.conn == conn {
			e.conn = nil
			e.connected.Store(false)
		}
		e.mu.Unlock()
		l.logf("repl: follower %s (%s) disconnected", followerID, conn.RemoteAddr())
	}()

	var scratch []byte
	hubLast := l.opts.Hub.LastSeq()
	if _, err := rw.Write([]byte(Magic)); err != nil {
		return
	}
	if err := writeFrame(rw, &scratch, fmHello, seqTermPayload(nil, hubLast, leaderTerm)); err != nil {
		return
	}
	l.logf("repl: follower %s (%s) connected at seq %d term %d (leader at %d term %d)",
		followerID, conn.RemoteAddr(), followerSeq, followerTerm, hubLast, leaderTerm)

	// Ack reader: the only frames a follower sends after FOLLOW are
	// ACKs. Any read error (or protocol violation) severs the conn,
	// which the writer notices at its next write or ping tick.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer conn.Close()
		var buf []byte
		for {
			typ, payload, nbuf, err := readFrame(rw, maxFrameBytes, buf)
			if err != nil || typ != fmAck {
				return
			}
			buf = nbuf
			seq, err := parseSeq(payload)
			if err != nil {
				return
			}
			e.acked.Store(seq)
		}
	}()

	// A follower on an older term must bootstrap even when its seq looks
	// resumable: across a term boundary the sequence spaces belong to
	// different timelines, and the snapshot is also how the follower
	// adopts (and persists) the new term. So must one whose window at
	// its seq is not the window this leader retains there: a leader
	// rebuilt from an empty WAL reuses sequence numbers on the same term.
	cursor := followerSeq
	_, _, gap := l.opts.Hub.TailFrom(cursor, nil)
	diverged := false
	if sum, ok := l.opts.Hub.SumAt(followerSeq); ok && fl.hasSum && sum != fl.sum {
		diverged = true
		l.logf("repl: follower %s applied a different window at seq %d: re-bootstrapping", followerID, followerSeq)
	}
	if gap || diverged || followerTerm < leaderTerm {
		cursor, err = l.sendSnapshot(rw, &scratch, followerID)
		if err != nil {
			l.logf("repl: follower %s: bootstrap failed: %v", followerID, err)
			return
		}
	}
	l.streamTail(rw, &scratch, leaderTerm, cursor, ackDone)
	conn.Close() // unblocks the ack reader before we wait on it
	<-ackDone
}

// sendSnapshot captures and streams one full-state bootstrap, returning
// the sequence the follower now stands at.
func (l *Leader) sendSnapshot(rw deadlineRW, scratch *[]byte, followerID string) (uint64, error) {
	seq, image, err := l.opts.Snapshot()
	if err != nil {
		return 0, err
	}
	l.logf("repl: follower %s: bootstrapping with a %d-byte snapshot at seq %d", followerID, len(image), seq)
	if err := writeFrame(rw, scratch, fmSnapBegin, seqPayload(nil, seq)); err != nil {
		return 0, err
	}
	for len(image) > 0 {
		chunk := image[:min(len(image), snapChunkBytes)]
		image = image[len(chunk):]
		if err := writeFrame(rw, scratch, fmSnapData, chunk); err != nil {
			return 0, err
		}
		l.bytesSent.Add(uint64(len(chunk)))
	}
	if err := writeFrame(rw, scratch, fmSnapEnd, nil); err != nil {
		return 0, err
	}
	l.snapshotsSent.Add(1)
	return seq, nil
}

// streamTail ships retained windows from cursor until the connection or
// the leader dies. A retention gap (the follower stalled long enough
// for its next window to be evicted) severs the connection: the
// follower reconnects and bootstraps from a snapshot.
func (l *Leader) streamTail(rw deadlineRW, scratch *[]byte, term, cursor uint64, ackDone <-chan struct{}) {
	ping := time.NewTicker(l.pingInterval)
	defer ping.Stop()
	var frames [][]byte
	var wbuf []byte // term-prefixed window payload, reused across frames
	for {
		pulse := l.opts.Hub.Pulse() // before TailFrom: no lost wakeup
		var gap bool
		frames, cursor, gap = l.opts.Hub.TailFrom(cursor, frames[:0])
		if gap {
			l.logf("repl: follower fell behind the retention horizon at seq %d; forcing re-bootstrap", cursor)
			return
		}
		for _, p := range frames {
			wbuf = windowPayload(wbuf, term, p)
			if err := writeFrame(rw, scratch, fmWindow, wbuf); err != nil {
				return
			}
			l.windowsSent.Add(1)
			l.bytesSent.Add(uint64(len(wbuf)))
		}
		select {
		case <-pulse:
		case <-ping.C:
			if err := writeFrame(rw, scratch, fmPing, seqPayload(nil, l.opts.Hub.LastSeq())); err != nil {
				return
			}
		case <-ackDone:
			return
		case <-l.stop:
			return
		}
	}
}

// deadlineRW arms a fresh read/write deadline per call, so a silent or
// stalled peer is bounded without any watchdog goroutine.
type deadlineRW struct {
	c      net.Conn
	rt, wt time.Duration
}

func (d deadlineRW) Read(p []byte) (int, error) {
	if d.rt > 0 {
		d.c.SetReadDeadline(time.Now().Add(d.rt))
	}
	return d.c.Read(p)
}

func (d deadlineRW) Write(p []byte) (int, error) {
	if d.wt > 0 {
		d.c.SetWriteDeadline(time.Now().Add(d.wt))
	}
	return d.c.Write(p)
}
