// Command psid is the Ψ-Lib geospatial server: it serves the
// psi.Collection moving-object API — SET / DEL / GET / NEARBY / WITHIN /
// STATS / FLUSH / SLOWLOG, plus the PROMOTE / DEMOTE / FOLLOW failover
// admin commands — over a newline-delimited JSON protocol on
// TCP, with HTTP probe endpoints on the -http listener:
//
//	/healthz          liveness probe (200 "ok"; 503 while draining or after a WAL failure)
//	/stats            STATS payload as JSON
//	/metrics          Prometheus text exposition (docs/observability.md)
//	/debug/flushtrace recent flush-pipeline spans as JSON
//	/debug/slowlog    retained slow queries as JSON (with -slowlog)
//	/debug/pprof/     Go profiles (with -pprof)
//
// The wire protocol is documented in docs/protocol.md; drive it with nc
// for a quickstart:
//
//	psid -addr :7501 -http :7502 &
//	printf '%s\n' '{"op":"SET","id":"veh-1","p":[3,4]}' '{"op":"FLUSH"}' \
//	              '{"op":"NEARBY","p":[0,0],"k":1}' | nc 127.0.0.1 7501
//	curl -s http://127.0.0.1:7502/metrics
//
// psid serves one index, picked by -index (any psibench table name), and
// each coalesced flush applies to it as one parallel batch. The index
// decides the read mode: the SPaC family and P-Orth serve snapshot reads
// from one tree their two versions share, the baselines serve locked
// reads. -pprof mounts net/http/pprof under /debug/pprof/ on the -http
// listener and adds GC counters to /stats, so allocation and CPU profiles
// can be captured from a live server (README "Performance").
//
// -wal DIR makes acknowledged writes survive restarts: every committed
// flush window is journaled to DIR before it is applied, a periodic full
// snapshot truncates the log, and startup recovers snapshot + log —
// including after a crash that tore the final record. -fsync picks the
// durability policy (always | never | a sync interval like 100ms; see
// docs/durability.md for what each promises), -snapshot-interval the
// snapshot cadence. Without -wal the server is memory-only.
//
// -repl ADDR (requires -wal) adds a replication listener: every
// committed WAL window streams to any psid started with
// -replica-of ADDR, which serves the same state read-only —
// GET/NEARBY/WITHIN work, SET/DEL/FLUSH are refused with the readonly
// error code — bootstrapping from a full snapshot when it is too far
// behind and resuming from its own WAL sequence after a restart. Lag is
// visible on both sides (/stats, /healthz, psi_repl_* metrics);
// docs/replication.md has the protocol and consistency contract.
//
// Failover is first-class: the PROMOTE command flips a running follower
// into the leader in place (bumping and journaling the leader term),
// FOLLOW re-points a follower — or a deposed ex-leader — at a new
// leader's address at runtime, and DEMOTE fences a leader by hand. A
// leader that learns of a higher term refuses writes with the fenced
// error code rather than forking history. Start a follower with both
// -replica-of and -repl to make it a hot standby whose PROMOTE listener
// address is pre-assigned; -max-lag turns /healthz into a 503-on-stale
// readiness gate. docs/replication.md ("Failover") has the contract.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
// in-flight commands, apply a final flush so every acknowledged write is
// committed (and, with -wal, snapshotted), and print the serving
// counters. Every exit path after startup runs the same shutdown — a
// fatal serving error (say, a dead WAL disk) drains and closes the log
// too, rather than aborting mid-flush.
//
// Load numbers come from go run ./benchmark -workload track-*, which
// spawns this binary; the kill -9, replication and failover-handover
// oracles are this package's real-process tests.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/service"
	"repro/internal/wal"

	psi "repro"
)

// main is a thin os.Exit shell around run: deferred cleanups (and the
// graceful-shutdown path) must not be skipped by a direct os.Exit in the
// middle of serving logic.
func main() { os.Exit(run()) }

func run() int {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"psid — Ψ-Lib geospatial server (protocol reference: docs/protocol.md)\n\nUsage: psid [flags]\n\n")
		flag.PrintDefaults()
	}
	addr := flag.String("addr", ":7501", "TCP command listener address")
	httpAddr := flag.String("http", ":7502", "HTTP probe listener address (/healthz, /stats, /metrics, /debug/flushtrace, /debug/slowlog); empty disables")
	index := flag.String("index", "SPaC-H", "index family (a psibench table name, e.g. SPaC-H, P-Orth, Pkd-Tree); it decides the read mode: the SPaC family and P-Orth serve snapshot reads from one tree their versions share, the baselines serve locked reads")
	dims := flag.Int("dims", 2, "point dimensionality (2 or 3)")
	side := flag.Int64("side", 1_000_000_000, "coordinate universe [0, side]^dims; at most 2^31-1, the stored int32 range, for every index family in 2-D; in 3-D P-Orth takes at most 1753413056 and the SPaC family and the Zd-tree 2^21-1")
	maxBatch := flag.Int("maxbatch", 4096, "coalescing threshold: pending ops that trigger a synchronous flush")
	flushEvery := flag.Duration("flush-interval", service.DefaultFlushInterval, "background flush cadence bounding query staleness")
	maxLine := flag.Int("maxline", service.DefaultMaxLineBytes, "reject request lines longer than this many bytes")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http listener and add GC counters to /stats")
	slowlog := flag.Duration("slowlog", 0, "slow-query threshold: commands slower than this are retained in the slow-query log (SLOWLOG command, /debug/slowlog); 0 disables")
	walDir := flag.String("wal", "", "write-ahead log directory: journal committed flush windows and recover them on restart (docs/durability.md); empty serves memory-only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (ack = on disk), never, or a sync interval like 100ms (bounded loss window)")
	snapEvery := flag.Duration("snapshot-interval", service.DefaultWALSnapshotInterval, "WAL snapshot-and-truncate cadence bounding restart replay time")
	replListen := flag.String("repl", "", "replication listener address: stream committed WAL windows to followers (docs/replication.md); requires -wal")
	replRetain := flag.Int("repl-retain", 0, "committed windows retained in memory for follower catch-up; a follower further behind re-bootstraps from a snapshot (0 = default)")
	replicaOf := flag.String("replica-of", "", "run as a read-only follower of the leader's -repl listener at host:port; requires -wal (combine with -repl for a hot standby: PROMOTE binds that address)")
	replID := flag.String("repl-id", "", "stable follower identity reported to the leader (defaults to the connection's remote address)")
	maxLag := flag.Int("max-lag", 0, "follower readiness gate: /healthz serves 503 when the replication lag exceeds this many windows (or the leader is unreachable); 0 keeps /healthz always-200")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()

	if *dims != 2 && *dims != 3 {
		fmt.Fprintf(os.Stderr, "psid: -dims must be 2 or 3, got %d\n", *dims)
		return 2
	}
	if top := collection.StoredRange(*dims).Hi[0]; *side < 1 || *side > top {
		fmt.Fprintf(os.Stderr, "psid: -side must be between 1 and %d, the stored int32 range, got %d\n", top, *side)
		return 2
	}
	// A negative interval would reach service.Options as "no background
	// flusher", leaving SETs invisible until -maxbatch fills.
	if *flushEvery < 0 {
		fmt.Fprintf(os.Stderr, "psid: -flush-interval must not be negative, got %s\n", *flushEvery)
		return 2
	}
	if *drain <= 0 {
		fmt.Fprintf(os.Stderr, "psid: -drain must be positive, got %s\n", *drain)
		return 2
	}
	// The layers below read a non-positive size or cadence, or a negative
	// bound, as "use the default" or "off": on the command line it is a typo.
	if *maxBatch <= 0 {
		fmt.Fprintf(os.Stderr, "psid: -maxbatch must be positive, got %d\n", *maxBatch)
		return 2
	}
	if *maxLine <= 0 {
		fmt.Fprintf(os.Stderr, "psid: -maxline must be positive, got %d\n", *maxLine)
		return 2
	}
	if *snapEvery <= 0 {
		fmt.Fprintf(os.Stderr, "psid: -snapshot-interval must be positive, got %s\n", *snapEvery)
		return 2
	}
	if *replRetain < 0 {
		fmt.Fprintf(os.Stderr, "psid: -repl-retain must not be negative, got %d\n", *replRetain)
		return 2
	}
	if *slowlog < 0 {
		fmt.Fprintf(os.Stderr, "psid: -slowlog must not be negative, got %s\n", *slowlog)
		return 2
	}
	if *maxLag < 0 {
		fmt.Fprintf(os.Stderr, "psid: -max-lag must not be negative, got %d\n", *maxLag)
		return 2
	}
	// The constructor also runs the family's own universe check (the
	// curve-keyed trees bound the coordinates they can encode). It panics
	// on that, as on programmer error; here the universe is command-line
	// input.
	idx, refused := func() (idx core.Index, refused any) {
		defer func() { refused = recover() }()
		return psi.ByName(*index, *dims, geom.UniverseBox(*dims, *side)), nil
	}()
	if refused != nil {
		fmt.Fprintf(os.Stderr, "psid: -index %s cannot cover -side %d in %d dimensions: %v\n", *index, *side, *dims, refused)
		return 2
	}
	if idx == nil {
		fmt.Fprintf(os.Stderr, "psid: unknown index %q (see psibench table names)\n", *index)
		return 2
	}
	fsyncPolicy, fsyncInterval, err := wal.ParseFsync(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psid: %v\n", err)
		return 2
	}
	if *pprofOn && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "psid: -pprof requires the -http listener")
		return 2
	}
	s, err := service.NewDurable(idx, service.Options{
		MaxBatch:            *maxBatch,
		FlushInterval:       *flushEvery,
		MaxLineBytes:        *maxLine,
		EnablePprof:         *pprofOn,
		SlowLog:             *slowlog,
		WALDir:              *walDir,
		WALFsync:            fsyncPolicy,
		WALFsyncInterval:    fsyncInterval,
		WALSnapshotInterval: *snapEvery,
		ReplListen:          *replListen,
		ReplRetainWindows:   *replRetain,
		ReplicaOf:           *replicaOf,
		ReplID:              *replID,
		MaxLagWindows:       *maxLag,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "psid: %v\n", err)
		return 1
	}
	// Collect recovery's garbage — the Build's sort scratch, the points it
	// took, the ID arena's outgrown copies — before serving: a GC that
	// marked them mid-recovery would leave the heap goal at twice their size.
	runtime.GC()
	// From here on every exit goes through shutdown: the final flush
	// (and WAL snapshot + close) must run on fatal errors too, or the
	// durability the -wal flag promises ends at the first panic-free
	// error path that calls os.Exit.
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		return s.Shutdown(ctx)
	}
	// Caught before the serving line, which a supervisor may answer with SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := s.Start(*addr, *httpAddr); err != nil {
		fmt.Fprintf(os.Stderr, "psid: %v\n", err)
		shutdown() // closes the collection and the WAL cleanly
		return 1
	}
	reads := "locked"
	if s.Stats().Versions == 2 {
		reads = "snapshot"
	}
	fmt.Printf("psid: serving %s (%s reads) on %s", *index, reads, s.Addr())
	if h := s.HTTPAddr(); h != nil {
		fmt.Printf(" (http %s)", h)
	}
	fmt.Printf(", %d cores", runtime.NumCPU())
	if *walDir != "" {
		rec := s.WALRecovered()
		fmt.Printf(", wal %s (fsync %s", *walDir, fsyncPolicy)
		if rec.TruncatedBytes > 0 {
			fmt.Printf(", truncated %d-byte torn tail", rec.TruncatedBytes)
		}
		fmt.Printf("), recovered %d objects from %d records in %.1f ms", rec.Objects, rec.Records, rec.RecoverMs)
	}
	fmt.Println()
	// The replication role gets its own line: subprocess tests and ops
	// scripts parse the bound -repl address (":0" in tests) from it. A
	// hot standby (-replica-of plus -repl) starts as a replica; PROMOTE
	// binds the -repl address later.
	if a := s.ReplAddr(); a != nil {
		fmt.Printf("psid: replication leader on %s\n", a)
	} else if *replicaOf != "" {
		fmt.Printf("psid: read-only replica of %s\n", *replicaOf)
	}

	code := 0
	select {
	case got := <-sig:
		fmt.Printf("psid: %s — draining (timeout %s)\n", got, *drain)
	case err := <-s.Fatal():
		// The WAL failed mid-serve: durable acks are already being
		// refused; drain, flush, and exit non-zero so the supervisor
		// restarts onto (or replaces) the bad disk.
		fmt.Fprintf(os.Stderr, "psid: fatal: %v — draining (timeout %s)\n", err, *drain)
		code = 1
	}
	shutdownErr := shutdown()
	st := s.Stats()
	var served, errs uint64
	for _, op := range st.Ops {
		served += op.Count
		errs += op.Errors
	}
	fmt.Printf("psid: stopped — %d commands served (%d errors, %d bad lines), %d objects across %d flushes\n",
		served, errs, st.BadLines, st.Objects, st.Flushes)
	if shutdownErr != nil {
		// The drain timed out and connections were force-closed: the
		// final flush still ran, but exit non-zero so supervisors (and
		// the CI smoke) can tell a forced stop from a graceful one.
		fmt.Fprintf(os.Stderr, "psid: forced shutdown after drain timeout: %v\n", shutdownErr)
		return 1
	}
	return code
}
