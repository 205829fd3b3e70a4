package repl

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Applier is the follower's state sink — internal/service implements it
// over the Collection flush commit and the follower's own WAL. The
// Follower guarantees strict ordering into it: ApplyWindow is called
// with contiguous ascending sequences (each exactly AppliedSeq()+1),
// duplicates are dropped before reaching it, and a gap is a protocol
// error that severs the connection instead of applying. ApplyWindow's ops
// and their IDs view a buffer the Follower reuses: keep none of them.
// Bootstrap replaces the full state with the wal.snap image snap streams,
// read to io.EOF before anything changes; an image not at seq and term,
// or any error, changes nothing. Its sequence may regress below
// AppliedSeq (a rebuilt leader), all the way to zero for an empty leader,
// and it must persist the leader term it carries: Term() reports the
// highest term adopted so far, and the Follower refuses sessions from
// leaders below it.
type Applier interface {
	AppliedSeq() uint64
	Term() uint64
	ApplyWindow(seq uint64, ops []wal.Op) error
	Bootstrap(seq, term uint64, snap io.Reader) error
}

// FollowerOptions configures a Follower. Addr and the Applier (passed to
// NewFollower) are required. A connection attempt is bounded by
// dialTimeout, the silence between leader frames (a PING arrives every
// defaultPingInterval while idle) by readTimeout, and one received frame
// by maxFrameBytes; reconnects back off from defaultBackoffMin,
// doubling, to defaultBackoffMax.
type FollowerOptions struct {
	// Addr is the leader's replication listener (host:port).
	Addr string
	// ID is the stable follower identity sent in the FOLLOW handshake;
	// the leader keys its per-follower metric series by it. Empty makes
	// the leader fall back to the connection's remote address (stable
	// enough for a quick look, wrong across reconnects).
	ID string
	// Logf, when set, receives one line per connect, bootstrap and
	// session error.
	Logf func(format string, args ...any)
}

// FollowerStatus is the follower-side replication block of /stats (and
// the fields /healthz reports).
type FollowerStatus struct {
	Connected  bool   `json:"connected"`
	Leader     string `json:"leader"`
	LeaderSeq  uint64 `json:"leader_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	// LagWindows is the last leader head this follower heard (HELLO or
	// PING) minus its applied seq; 0 when fully caught up. While
	// disconnected it reports the lag as of the last contact.
	LagWindows uint64 `json:"lag_windows"`
	Reconnects uint64 `json:"reconnects"`
	Bootstraps uint64 `json:"bootstraps"`
	Windows    uint64 `json:"windows_applied"`
	Duplicates uint64 `json:"duplicates_skipped"`
	LastError  string `json:"last_error,omitempty"`
}

// Follower maintains one replication session against the leader,
// reconnecting with backoff forever until Stop. Create with
// NewFollower, start the loop with Start.
type Follower struct {
	opts FollowerOptions
	app  Applier
	// maxFrame and the backoff bounds are maxFrameBytes and the default
	// backoff; tests tighten them before Start.
	maxFrame               int
	backoffMin, backoffMax time.Duration

	stop    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn // live session's conn, closed by Stop to interrupt reads
	err  string   // last session error

	connected atomic.Bool
	leaderSeq atomic.Uint64
	// applied is the position this follower reports (Status, the lag
	// gauges): the last window whose ApplyWindow or Bootstrap has
	// RETURNED, so it never runs ahead of what a read can see. The
	// Applier's own AppliedSeq is its journal position, which moves
	// before the window it journals is applied; only the session
	// goroutine, between windows, may take that for the applied one.
	applied    atomic.Uint64
	sessions   atomic.Uint64
	bootstraps atomic.Uint64
	windows    atomic.Uint64
	duplicates atomic.Uint64

	// sum is the CRC-32 of the window payload applied at sumSeq, sent in
	// FOLLOW when sumSeq is still the applied position; haveSum is false
	// until this process streams a window (a snapshot or a restarted
	// WAL does not tell it). Session goroutine only.
	sum     uint32
	sumSeq  uint64
	haveSum bool

	// stream-loop scratch, reused across frames (one session at a time).
	frameBuf []byte
	opsBuf   []wal.Op
	ackBuf   []byte
	seqBuf   []byte
}

// NewFollower returns a follower that has not started dialing; Start
// launches the session loop.
func NewFollower(app Applier, opts FollowerOptions) *Follower {
	f := &Follower{
		opts:       opts,
		app:        app,
		maxFrame:   maxFrameBytes,
		backoffMin: defaultBackoffMin,
		backoffMax: defaultBackoffMax,
		stop:       make(chan struct{}),
	}
	f.applied.Store(app.AppliedSeq())
	return f
}

func (f *Follower) lag() uint64 {
	head := f.leaderSeq.Load()
	if applied := f.applied.Load(); head > applied {
		return head - applied
	}
	return 0
}

// Start launches the session loop: dial, handshake, stream, reconnect
// with backoff, forever until Stop.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.run()
}

// Stop severs the session and stops reconnecting. Safe to call twice;
// returns after the loop has fully exited (no apply is in flight).
func (f *Follower) Stop() {
	if !f.closing.CompareAndSwap(false, true) {
		return
	}
	close(f.stop)
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// SetAddr re-points the follower at a new leader address at runtime: the
// current session (if any) is severed and the reconnect loop dials the
// new address. The service's FOLLOW admin command uses it so surviving
// followers join a promoted leader without a restart.
func (f *Follower) SetAddr(addr string) {
	f.mu.Lock()
	f.opts.Addr = addr
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// addr returns the current leader address (mutable via SetAddr).
func (f *Follower) addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opts.Addr
}

// Status snapshots the follower's replication position.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Connected:  f.connected.Load(),
		Leader:     f.addr(),
		LeaderSeq:  f.leaderSeq.Load(),
		AppliedSeq: f.applied.Load(),
		LagWindows: f.lag(),
		Bootstraps: f.bootstraps.Load(),
		Windows:    f.windows.Load(),
		Duplicates: f.duplicates.Load(),
	}
	if s := f.sessions.Load(); s > 0 {
		st.Reconnects = s - 1
	}
	f.mu.Lock()
	st.LastError = f.err
	f.mu.Unlock()
	return st
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.err = err.Error()
	f.mu.Unlock()
}

func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.backoffMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		addr := f.addr()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			f.setErr(err)
			if !f.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, f.backoffMax)
			continue
		}
		f.mu.Lock()
		if f.closing.Load() {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.mu.Unlock()

		start := time.Now()
		err = f.session(conn)
		conn.Close()
		f.connected.Store(false)
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		if f.closing.Load() {
			return
		}
		if err != nil {
			f.setErr(err)
			f.logf("repl: session with %s failed: %v", addr, err)
		}
		// A session that survived a while earned a fresh backoff; a
		// handshake that dies instantly keeps doubling.
		if time.Since(start) > f.backoffMax {
			backoff = f.backoffMin
		}
		if !f.sleep(backoff) {
			return
		}
		backoff = min(backoff*2, f.backoffMax)
	}
}

func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// session performs the handshake on an established connection and
// consumes the stream until an error (including Stop closing the conn).
func (f *Follower) session(conn net.Conn) error {
	rw := deadlineRW{c: conn, rt: readTimeout, wt: writeTimeout}
	applied, term := f.app.AppliedSeq(), f.app.Term()
	fl := follow{seq: applied, term: term, id: f.opts.ID}
	fl.sum, fl.hasSum = f.sum, f.haveSum && f.sumSeq == applied
	hs := append([]byte(nil), Magic...)
	hs = appendFrame(hs, fmFollow, followPayload(nil, fl))
	if _, err := rw.Write(hs); err != nil {
		return err
	}
	f.sessions.Add(1)
	f.logf("repl: following %s from seq %d (term %d)", conn.RemoteAddr(), applied, term)
	// The bufio reader sits above the deadline wrapper, so every fill
	// rearms the read deadline.
	return f.stream(bufio.NewReaderSize(rw, 64<<10), rw)
}

// stream consumes the leader's side of the protocol — magic, HELLO,
// then snapshot/window/ping frames — applying windows in strict order
// and writing ACKs to w. It is the follower's entire untrusted-input
// surface and must never panic and never apply an invalid, duplicate or
// out-of-order window, whatever bytes arrive (FuzzReplStream drives it
// with adversarial streams; w errors are only possible on live
// connections and sever the session).
func (f *Follower) stream(r io.Reader, w io.Writer) error {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("repl: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return fmt.Errorf("repl: bad magic %q", magic[:])
	}
	typ, payload, buf, err := readFrame(r, f.maxFrame, f.frameBuf)
	f.frameBuf = buf
	if err != nil {
		return err
	}
	if typ != fmHello {
		return fmt.Errorf("repl: expected HELLO, got frame type %#x", typ)
	}
	head, sessionTerm, err := parseSeqTerm(payload)
	if err != nil {
		return err
	}
	// Fencing, follower side: a leader below the term this replica has
	// already adopted is deposed — refusing its stream is what keeps a
	// stale timeline from ever overwriting the promoted one.
	if local := f.app.Term(); sessionTerm < local {
		return fmt.Errorf("repl: leader term %d below local term %d: refusing stale leader", sessionTerm, local)
	}
	f.leaderSeq.Store(head)
	f.connected.Store(true)

	for {
		typ, payload, buf, err := readFrame(r, f.maxFrame, f.frameBuf)
		f.frameBuf = buf
		if err != nil {
			return err
		}
		switch typ {
		case fmPing:
			head, err := parseSeq(payload)
			if err != nil {
				return err
			}
			f.leaderSeq.Store(head)
			if err := f.ack(w, f.app.AppliedSeq()); err != nil {
				return err
			}
		case fmSnapBegin:
			seq, err := parseSeq(payload)
			if err != nil {
				return err
			}
			snap := &snapStream{f: f, r: r}
			if err := f.app.Bootstrap(seq, sessionTerm, snap); err != nil {
				return fmt.Errorf("repl: bootstrap: %w", err)
			}
			f.applied.Store(seq)
			f.haveSum = false
			f.bootstraps.Add(1)
			f.logf("repl: bootstrapped at seq %d (term %d)", seq, sessionTerm)
			if err := f.ack(w, seq); err != nil {
				return err
			}
		case fmWindow:
			winTerm, win, err := splitWindowTerm(payload)
			if err != nil {
				return err
			}
			// Fencing, frame granularity: every window carries the term
			// it was committed under, and a mismatch with the session's
			// HELLO term severs the connection before anything applies.
			if winTerm != sessionTerm {
				return fmt.Errorf("repl: window term %d does not match session term %d: severing", winTerm, sessionTerm)
			}
			seq, ops, err := wal.DecodeWindowPayload(win, f.opsBuf[:0])
			f.opsBuf = ops
			if err != nil {
				return err
			}
			applied := f.app.AppliedSeq()
			if seq <= applied {
				// Defensive: the resume handshake makes duplicates
				// impossible against a correct leader, so the chaos
				// tests assert this stays zero.
				f.duplicates.Add(1)
				continue
			}
			if seq != applied+1 {
				return fmt.Errorf("repl: window gap: got seq %d, applied %d", seq, applied)
			}
			if err := f.app.ApplyWindow(seq, ops); err != nil {
				return fmt.Errorf("repl: apply window %d: %w", seq, err)
			}
			f.applied.Store(seq)
			f.sum, f.sumSeq, f.haveSum = crc32.ChecksumIEEE(win), seq, true
			f.windows.Add(1)
			if seq > f.leaderSeq.Load() {
				f.leaderSeq.Store(seq)
			}
			if err := f.ack(w, seq); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unexpected frame type %#x", typ)
		}
	}
}

// snapStream is the image a SNAP_BEGIN opens: the bytes of the SNAP_DATA
// frames that follow, to io.EOF at SNAP_END. Any other frame, or the end
// of r, inside it is an error.
type snapStream struct {
	f     *Follower
	r     io.Reader
	chunk []byte // unread rest of the current SNAP_DATA payload, in f.frameBuf
	ended bool
}

func (s *snapStream) Read(p []byte) (int, error) {
	for len(s.chunk) == 0 {
		if s.ended {
			return 0, io.EOF
		}
		typ, payload, buf, err := readFrame(s.r, s.f.maxFrame, s.f.frameBuf)
		s.f.frameBuf = buf
		switch {
		case err == io.EOF:
			return 0, io.ErrUnexpectedEOF // a closed stream is not the image's end
		case err != nil:
			return 0, err
		case typ == fmSnapData:
			s.chunk = payload
		case typ == fmSnapEnd && len(payload) == 0:
			s.ended = true
		default:
			return 0, fmt.Errorf("repl: frame type %#x inside a snapshot stream", typ)
		}
	}
	n := copy(p, s.chunk)
	s.chunk = s.chunk[n:]
	return n, nil
}

func (f *Follower) ack(w io.Writer, seq uint64) error {
	f.seqBuf = seqPayload(f.seqBuf, seq)
	err := writeFrame(w, &f.ackBuf, fmAck, f.seqBuf)
	if err != nil {
		return fmt.Errorf("repl: writing ack: %w", err)
	}
	return nil
}
