package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/wal"
)

// DefaultMaxLineBytes caps one request line when Options.MaxLineBytes is
// unset. Commands are tiny (a SET is under 100 bytes), so 1 MiB is a
// pure abuse guard, not a tuning knob.
const DefaultMaxLineBytes = 1 << 20

// MaxNearbyK caps NEARBY's k: the KNN heap allocates O(k) before
// searching, so the wire value must be bounded (a dashboard wanting
// "everything near q" this badly should use WITHIN).
const MaxNearbyK = 1 << 16

// Options tunes a Server. The zero value is usable.
type Options struct {
	// MaxBatch and FlushInterval tune the underlying Collection's
	// coalescing log: MaxBatch is the pending-op count that makes the
	// enqueuing connection flush synchronously, FlushInterval bounds how
	// long a SET can stay invisible to NEARBY/WITHIN under light write
	// traffic. Defaults: collection.DefaultMaxBatch, and 2ms when zero —
	// a server with no background flusher would leave a trickle of SETs
	// invisible indefinitely, which is never what a network caller wants.
	// Set FlushInterval negative to disable the background flusher (tests
	// that want to observe pre-flush state do).
	MaxBatch      int
	FlushInterval time.Duration
	// MaxLineBytes rejects request lines longer than this with a
	// too_large error (the line is discarded, the connection survives).
	// <= 0 selects DefaultMaxLineBytes.
	MaxLineBytes int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// probe listener and adds runtime GC counters to /stats, so heap and
	// allocation profiles can be captured from a live server (see the
	// README's Performance section). Off by default: the profile
	// endpoints can stall the world and do not belong on an unguarded
	// production port.
	EnablePprof bool
	// DisableSnapshot keeps the Collection on the locked read path. By
	// default, over a copy-on-write index (core.Adopter: the SPaC family
	// and P-Orth, as trees or sharded), queries read the published version
	// of one shared tree and never wait behind the index apply, at most
	// for a window's drain and table step; the baselines (Pkd, Zd,
	// Boost-R, Log, BHL, BruteForce) serve locked reads either way. Set
	// this to benchmark the locked baseline.
	DisableSnapshot bool
	// Obs is the metric registry the server records into and serves at
	// /metrics. The same registry is handed to the Collection (and should
	// be the one the wrapped Sharded was built with) so one scrape covers
	// every layer. Leave nil and the server creates a private registry —
	// /metrics then carries the serving and collection series only.
	Obs *obs.Registry
	// SlowLog, when positive, is the slow-query threshold: any command
	// slower than this is captured — command, request line, duration,
	// shards visited, candidates scanned, pinned epoch — into a
	// preallocated ring of DefaultSlowLogSize entries served at
	// /debug/slowlog and by the SLOWLOG command. Zero disables the log
	// (SLOWLOG then errors).
	SlowLog time.Duration
	// WALDir, when non-empty, puts a write-ahead log under the
	// Collection: every committed flush window is journaled to
	// WALDir/wal.log before it is applied, startup recovers the logged
	// state (snapshot + log replay, truncating a torn tail), and a
	// background loop snapshots the full state every WALSnapshotInterval
	// to bound replay time. Empty (the default) serves memory-only, the
	// pre-WAL behavior. Use NewDurable to surface WAL open/recovery
	// errors instead of New's panic.
	WALDir string
	// WALFsync is the append durability policy (wal.FsyncAlways /
	// FsyncInterval / FsyncNever — cmd/psid parses -fsync into this).
	// Under FsyncAlways the server flushes after every SET/DEL before
	// acknowledging, so "acknowledged" means "on disk"; the other
	// policies acknowledge from memory and bound the loss window
	// instead (docs/durability.md has the per-policy contract).
	WALFsync wal.FsyncPolicy
	// WALFsyncInterval is the FsyncInterval cadence; <= 0 selects
	// wal.DefaultInterval. Ignored by the other policies.
	WALFsyncInterval time.Duration
	// WALSnapshotInterval is the snapshot-and-truncate cadence; <= 0
	// selects DefaultWALSnapshotInterval. Idle ticks (no appends since
	// the last snapshot) are skipped.
	WALSnapshotInterval time.Duration
	// ReplListen, when non-empty, makes this server a replication leader:
	// Start binds a second TCP listener on this address and streams every
	// committed WAL window to connected followers (docs/replication.md).
	// Requires WALDir — replication ships exactly the journaled windows.
	// Combined with ReplicaOf the server starts as a follower and
	// ReplListen is the standby address PROMOTE binds (a hot spare:
	// -replica-of for the current leader, -repl for the address it will
	// serve followers on after promotion).
	ReplListen string
	// ReplRetainWindows bounds the leader's in-memory catch-up ring in
	// windows (repl.DefaultRetainBytes bounds it in bytes): a follower
	// whose resume point has been evicted re-bootstraps from a full
	// snapshot instead. <= 0 selects repl.DefaultRetainWindows.
	ReplRetainWindows int
	// ReplicaOf, when non-empty, makes this server a read-only follower
	// of the leader's replication listener at this host:port: it
	// bootstraps or resumes over the wire, commits each of the leader's
	// windows as it arrived (journaling it to its own WAL under the
	// leader's sequence number), and refuses client SET/DEL/FLUSH with
	// CodeReadonly. Requires WALDir.
	ReplicaOf string
	// ReplID is the follower's stable identity in the FOLLOW handshake;
	// the leader keys its per-follower /stats and metric series by it.
	// Empty falls back to the connection's remote address.
	ReplID string
	// MaxLagWindows, when positive, turns /healthz into a follower
	// readiness gate: a follower lagging more than this many committed
	// windows behind its leader (or disconnected from it) reports 503
	// with the lag in the body, so a load balancer can route reads away
	// from stale replicas. Zero (the default) keeps /healthz always-200
	// for a serving follower — staleness stays visible in lag_windows but
	// is the balancer's policy call. cmd/psid surfaces this as -max-lag.
	MaxLagWindows int
	// Logf, when set, receives replication lifecycle lines (follower
	// connects, bootstraps, session errors). cmd/psid wires log.Printf.
	Logf func(format string, args ...any)
}

// DefaultSlowLogSize is the slow-query ring capacity.
const DefaultSlowLogSize = 128

// DefaultFlushInterval is the background flush cadence used when
// Options.FlushInterval is zero.
const DefaultFlushInterval = 2 * time.Millisecond

// DefaultWALSnapshotInterval is the WAL snapshot cadence used when
// Options.WALSnapshotInterval is unset.
const DefaultWALSnapshotInterval = time.Minute

func (o Options) withDefaults() Options {
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = DefaultMaxLineBytes
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = DefaultFlushInterval
	} else if o.FlushInterval < 0 {
		o.FlushInterval = 0
	}
	if o.Obs == nil {
		o.Obs = obs.New()
	}
	if o.WALSnapshotInterval <= 0 {
		o.WALSnapshotInterval = DefaultWALSnapshotInterval
	}
	return o
}

// Server serves the psid protocol over TCP (and probe endpoints over
// HTTP) on top of one Collection[string]. Create one with New, bind it
// with Start, stop it with Shutdown. All exported methods are safe for
// concurrent use.
type Server struct {
	opts  Options
	coll  *collection.Collection[string]
	dims  int
	met   metrics
	reg   *obs.Registry
	slow  *obs.SlowLog // nil unless Options.SlowLog > 0
	start time.Time

	// universe is the box a SET's point must lie in: the Collection's
	// stored range (int32 coordinates, no Z in 2-D), cut down to the
	// index's universe when it is a core.Bounded.
	universe geom.Box

	ln     net.Listener
	httpLn net.Listener
	http   *http.Server

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing atomic.Bool
	wg      sync.WaitGroup // accept loop + one entry per live connection

	// Durability state, zero-valued when WALDir is unset (wal == nil).
	wal         *wal.Log
	recovered   WALRecovery
	durableAcks bool        // fsync=always: flush (and so journal+fsync) before acking SET/DEL
	walFailed   atomic.Bool // sticky: a journal append, fsync, or snapshot failed
	fatal       chan error  // first WAL failure, for the binary's select loop
	snapStop    chan struct{}
	snapWG      sync.WaitGroup
	walOnce     sync.Once // WAL teardown (Shutdown may be called twice)

	// Replication state (internal/service/repl.go), nil/zero unless
	// ReplListen or ReplicaOf is set. role/roleChanges are atomics read
	// on the dispatch and journal paths; the pointer fields are guarded
	// by replMu because PROMOTE and FOLLOW replace them at runtime (hub
	// is the exception: the journal hook reads it locklessly, gated on
	// role == leader, which is stored only after hub is in place).
	replMu   sync.Mutex     // serializes PROMOTE/DEMOTE/FOLLOW role transitions
	hub      *repl.Hub      // leader: committed-window fan-out ring
	replLead *repl.Leader   // leader: follower listener
	replFoll *repl.Follower // follower: session loop against the leader
	// replPast holds the counters of the incarnations PROMOTE and FOLLOW
	// retired (under replMu), replSeen the follower identities whose
	// labelled series are registered: the psi_repl_* series are the
	// Server's, reading through whichever incarnation is current.
	replPast replTotals
	replSeen sync.Map
	// role is the replication role (replRole); roleChanges counts its
	// transitions; leaderHint holds the last-known leader address (string)
	// returned with readonly/fenced errors.
	role        atomic.Int32
	roleChanges atomic.Uint64
	leaderHint  atomic.Value
}

// New wraps idx (which must start empty) in a Server. Like
// collection.New, the Server takes ownership of idx — the recommended
// serving stack is a Sharded over the per-workload index choice, so each
// netted flush fans out across shards in parallel while connections keep
// enqueueing. When idx is copy-on-write (core.Adopter, and
// DisableSnapshot is unset), queries ride the epoch-pinned snapshot path:
// NEARBY/WITHIN never wait behind the index apply, and /stats reports the
// epoch counters. A SET whose point lies outside the Collection's stored
// range (int32 coordinates), or outside idx's universe when it has a fixed
// one (core.Bounded), is refused before it is enqueued or journaled, and so
// is a recovered, bootstrapped or replicated one (inUniverse).
//
// New panics if WAL setup fails — only possible with Options.WALDir set
// (an unreadable directory, a corrupt snapshot, a logged point outside the
// universe). Durable configurations should call NewDurable and handle the
// error.
func New(idx core.Index, opts Options) *Server {
	s, err := NewDurable(idx, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// inUniverse is the contract of the Collection and its index on every
// point that reaches them, from a SET, a recovered log, a leader's
// bootstrap or window: nil, or an error that names id, p and the universe
// p lies outside of.
func (s *Server) inUniverse(id string, p geom.Point) error {
	if s.universe.Contains(p, geom.MaxDims) { // Z too: [0, 0] in 2-D
		return nil
	}
	q, n := p, s.dims // only a refused point goes to the heap
	if q[2] != 0 {
		n = geom.MaxDims // a 2-D point with a Z
	}
	return fmt.Errorf("%q: point %v outside the universe %v", id, q[:n], s.universe)
}

// universeOf returns the box every point a Collection over idx takes must
// lie in: its stored range, within idx's own universe if it has one.
func universeOf(idx core.Index) geom.Box {
	u := collection.StoredRange(idx.Dims())
	if b, ok := idx.(core.Bounded); ok {
		own := b.Universe()
		for d := range idx.Dims() {
			u.Lo[d], u.Hi[d] = max(u.Lo[d], own.Lo[d]), min(u.Hi[d], own.Hi[d])
		}
	}
	return u
}

// windowInUniverse runs inUniverse over the Sets of a window or bootstrap.
func (s *Server) windowInUniverse(ops []wal.Op[string]) error {
	for _, o := range ops {
		if o.Del {
			continue
		}
		if err := s.inUniverse(o.ID, o.P); err != nil {
			return err
		}
	}
	return nil
}

// Registry returns the server's metric registry (the one served at
// /metrics) for embedders that want to add their own series.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Collection exposes the underlying Collection for in-process callers: a
// binary embedding a Server can serve local traffic at function-call
// speed and remote traffic over the socket against the same state.
func (s *Server) Collection() *collection.Collection[string] { return s.coll }

// Start binds the TCP command listener on addr and, when httpAddr is
// non-empty, the HTTP probe listener (GET /healthz, GET /stats). It
// returns once both listeners are bound — use Addr/HTTPAddr to discover
// ":0" ports — and serves in background goroutines until Shutdown.
func (s *Server) Start(addr, httpAddr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("psid: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.start = time.Now()
	if httpAddr != "" {
		hln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("psid: listen http %s: %w", httpAddr, err)
		}
		s.httpLn = hln
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/stats", s.handleStats)
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/debug/flushtrace", s.handleFlushTrace)
		mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
		if s.opts.EnablePprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		s.http = &http.Server{Handler: mux}
		go s.http.Serve(hln)
	}
	if err := s.startRepl(); err != nil {
		ln.Close()
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		return err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound command listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// HTTPAddr returns the bound probe listener address (nil when disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed by Shutdown (or fatally broken): stop.
			return
		}
		// Register under the same lock Shutdown broadcasts deadlines
		// under: either this conn is registered before the broadcast and
		// gets its deadline, or the closing flag is already visible here
		// and the conn is refused — a conn can never slip between the
		// two and park in readLine unbounded.
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains and stops the server: it stops accepting, lets every
// in-flight command finish and write its response, closes the
// connections, stops the HTTP listener, and applies a final flush so no
// acknowledged SET is lost (Collection.Close). If ctx expires before the
// drain completes, remaining connections are closed forcibly; the final
// flush still runs. Shutdown returns ctx.Err in that case, else nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock every reader parked on the next request line (the mutex
	// pairs with acceptLoop's registration, so a concurrently accepted
	// conn either sees closing or gets the deadline). Handlers in the
	// middle of a command are not interrupted: the deadline only fires
	// on their next read, after the response is written.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.http != nil {
		s.http.Shutdown(ctx)
	}
	// Replication stops before the final flush: a follower's in-flight
	// apply must finish (or be severed) so no journal append races the
	// WAL's closing snapshot; a leader's streams just end, and followers
	// resume against the next incarnation.
	s.stopRepl()
	s.coll.Close() // stops the background flusher and applies the final (journaled) flush
	// With a WAL: snapshot the final state and truncate the log, so a
	// clean restart replays nothing, then close the log (which syncs —
	// even fsync=never loses nothing on a graceful exit).
	s.closeWAL()
	return err
}

// Stats snapshots the serving and collection counters (the STATS command
// and HTTP /stats body). It does not flush, and it never takes the
// flush writer's lock — the counts come from the published epoch (or the
// lifetime counters in locked mode), so /stats stays responsive even
// while a huge commit window is mid-apply. Objects counts committed
// objects, Pending the enqueued tail.
func (s *Server) Stats() StatsPayload {
	cs := s.coll.Stats()
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	st := StatsPayload{
		Objects:     cs.Objects,
		Epoch:       cs.Epoch,
		Versions:    cs.Versions,
		RetireLag:   cs.RetireLag,
		TableWaits:  cs.TableWaits,
		TableWaitNs: cs.TableWaitNs,
		Pending:     cs.Pending,
		Flushes:     cs.Flushes,
		Inserted:    cs.Inserted,
		Moved:       cs.Moved,
		Removed:     cs.Removed,
		Cancelled:   cs.Cancelled,
		Conns:       conns,
		UptimeS:     time.Since(s.start).Seconds(),
		BadLines:    s.met.badLines.Load(),
		Ops:         s.met.snapshot(),
	}
	if cs.Versions == 2 {
		st.Cow = &CowStats{Nodes: cs.CowNodes, Bytes: cs.CowBytes}
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &WALStats{
			Policy:        ws.Policy,
			DurableAcks:   s.durableAcks,
			Failed:        s.walFailed.Load(),
			Seq:           ws.Seq,
			SnapshotSeq:   ws.SnapshotSeq,
			LogBytes:      ws.LogBytes,
			Appends:       ws.Appends,
			AppendedBytes: ws.AppendedBytes,
			Fsyncs:        ws.Fsyncs,
			Snapshots:     ws.Snapshots,
			Errors:        ws.Errors,
			JournalErrors: cs.JournalErrors,
			Recovery:      s.recovered,
		}
	}
	st.Repl = s.replStats()
	if s.opts.EnablePprof {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		st.GC = &GCStats{
			HeapAllocBytes:  m.HeapAlloc,
			TotalAllocBytes: m.TotalAlloc,
			Mallocs:         m.Mallocs,
			Frees:           m.Frees,
			NumGC:           m.NumGC,
			PauseTotalMs:    float64(m.PauseTotalNs) / 1e6,
			GCCPUFraction:   m.GCCPUFraction,
		}
	}
	return st
}
