// Package loadgen is the failover-handover harness behind cmd/psiload:
// RunFailover spawns a real psid cluster — a leader plus hot standbys,
// each its own OS process with its own WAL directory — drives write
// and read churn against it, and performs repeated violent handovers:
// kill -9 the leader mid-churn, PROMOTE the next standby in place,
// FOLLOW-re-point the survivors, and restart the victim as a standby of
// the new timeline. Throughout,
// every churn connection records its unavailability windows (first
// error to first success), and every acknowledged write is tracked so
// the final topology can be audited with verifyFinal. This is the
// serving-path measurement behind docs/replication.md's failover
// contract: writes are unavailable for roughly the promote window,
// reads on survivors are not, and no write acknowledged by a live
// timeline is ever lost. It reaches a server only the way any client
// does — service.Client — so it sits beside the server package, not in
// it. Load numbers come from go run ./benchmark, and the single-fault
// oracles (kill -9 recovery, follower convergence, partition, one
// promotion) are cmd/psid's real-process tests; repeated handovers with
// the victim rejoining are the one scenario only this harness runs.
//
// The handover is deliberately sequenced the way an operator (or an
// external controller) would run it:
//
//  1. writers pause between ops, so the acked frontier is static;
//  2. the promote target is confirmed caught up to that frontier —
//     promoting a lagging follower is the one way to lose acked
//     writes under asynchronous replication, so the harness refuses
//     to measure that configuration (docs/replication.md, "What
//     PROMOTE does not do");
//  3. the leader is SIGKILLed and writers resume — against a node
//     that is still a follower, so the write-unavailability clock
//     starts honestly at the first refused write;
//  4. PROMOTE flips the standby in place, FOLLOW re-points the other
//     survivors, and the victim restarts as a standby of the new
//     leader (its stale term forces a clean bootstrap);
//  5. the first acknowledged write closes the window.
//
// Readers are never paused and are re-pointed at the next leader
// before the kill, so their windows isolate what the in-place PROMOTE
// itself costs read traffic (nothing, when it works).
package loadgen

import (
	"encoding/csv"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// FailoverOptions configures one failover chaos run. Zero fields take
// defaults.
type FailoverOptions struct {
	PsidBin string // psid binary to spawn (required)
	BaseDir string // scratch directory for the per-node WALs (required)

	Nodes     int // cluster size, leader + standbys; default 3, min 2
	Handovers int // kill-promote rounds; default 5
	Writers   int // concurrent writer connections; default 4
	Readers   int // concurrent reader connections; default 2

	// RoundDur is the churn time between handovers; default 1s.
	RoundDur time.Duration
	// IDsPerWriter is each writer's private object-ID space; default 200.
	IDsPerWriter int

	// ServerOut receives the spawned servers' stdout/stderr; nil
	// discards it.
	ServerOut io.Writer
	// Logf, when set, narrates the orchestration (one line per
	// handover step).
	Logf func(format string, args ...any)
}

func (o FailoverOptions) withDefaults() (FailoverOptions, error) {
	if o.PsidBin == "" {
		return o, fmt.Errorf("psiload: failover needs the psid binary path")
	}
	if o.BaseDir == "" {
		return o, fmt.Errorf("psiload: failover needs a scratch directory")
	}
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.Nodes < 2 {
		return o, fmt.Errorf("psiload: failover needs at least 2 nodes, got %d", o.Nodes)
	}
	if o.Handovers <= 0 {
		o.Handovers = 5
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.Readers <= 0 {
		o.Readers = 2
	}
	if o.RoundDur <= 0 {
		o.RoundDur = time.Second
	}
	if o.IDsPerWriter <= 0 {
		o.IDsPerWriter = 200
	}
	return o, nil
}

// FailoverReport aggregates a failover chaos run. The window slices
// are sorted ascending.
type FailoverReport struct {
	Nodes     int
	Handovers int
	Writers   int
	Readers   int
	Elapsed   time.Duration

	// FinalTerm is the final leader's term — one PROMOTE per
	// handover, so it must equal Handovers.
	FinalTerm uint64
	// Verified counts the acknowledged writes audited (and found)
	// on the final leader.
	Verified int

	WriteOps, WriteErrs uint64 // write attempts / failed attempts (retries during windows)
	ReadOps, ReadErrs   uint64

	// WriteWindows and ReadWindows are the observed unavailability
	// windows: for each client, the span from its first failed op to
	// its next successful one.
	WriteWindows []time.Duration
	ReadWindows  []time.Duration
}

// quantileDur is the nearest-rank quantile of a sorted window slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

const ms = float64(time.Millisecond)

// Format pretty-prints the report.
func (r *FailoverReport) Format(w io.Writer) {
	fmt.Fprintf(w, "psiload failover: %d nodes, %d handovers (final term %d), %d writers + %d readers, %.2fs\n",
		r.Nodes, r.Handovers, r.FinalTerm, r.Writers, r.Readers, r.Elapsed.Seconds())
	fmt.Fprintf(w, "verified %d acknowledged writes on the final leader\n", r.Verified)
	formatWindows(w, "write", r.WriteWindows, r.WriteOps, r.WriteErrs)
	formatWindows(w, "read ", r.ReadWindows, r.ReadOps, r.ReadErrs)
}

func formatWindows(w io.Writer, kind string, windows []time.Duration, ops, errs uint64) {
	if len(windows) == 0 {
		fmt.Fprintf(w, "%s unavailability: none (%d ops, %d errors)\n", kind, ops, errs)
		return
	}
	fmt.Fprintf(w, "%s unavailability: %d windows  p50=%.1fms  p99=%.1fms  max=%.1fms  (%d ops, %d retried)\n",
		kind, len(windows),
		float64(quantileDur(windows, 0.50))/ms,
		float64(quantileDur(windows, 0.99))/ms,
		float64(windows[len(windows)-1])/ms,
		ops, errs)
}

// WriteCSV emits the report as machine-readable rows: one row per
// observed window, then the p50/p99/max summaries and run counters,
// greppable by kind.
func (r *FailoverReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "sample", "value"}); err != nil {
		return err
	}
	rows := make([][]string, 0, len(r.WriteWindows)+len(r.ReadWindows)+16)
	for i, d := range r.WriteWindows {
		rows = append(rows, []string{"write_window_ms", fmt.Sprintf("%d", i), fmt.Sprintf("%.2f", float64(d)/ms)})
	}
	for i, d := range r.ReadWindows {
		rows = append(rows, []string{"read_window_ms", fmt.Sprintf("%d", i), fmt.Sprintf("%.2f", float64(d)/ms)})
	}
	for _, s := range []struct {
		kind    string
		windows []time.Duration
	}{{"write_unavail_ms", r.WriteWindows}, {"read_unavail_ms", r.ReadWindows}} {
		rows = append(rows,
			[]string{s.kind, "count", fmt.Sprintf("%d", len(s.windows))},
			[]string{s.kind, "p50", fmt.Sprintf("%.2f", float64(quantileDur(s.windows, 0.50))/ms)},
			[]string{s.kind, "p99", fmt.Sprintf("%.2f", float64(quantileDur(s.windows, 0.99))/ms)},
		)
		if n := len(s.windows); n > 0 {
			rows = append(rows, []string{s.kind, "max", fmt.Sprintf("%.2f", float64(s.windows[n-1])/ms)})
		}
	}
	rows = append(rows,
		[]string{"write", "ops", fmt.Sprintf("%d", r.WriteOps)},
		[]string{"write", "errors", fmt.Sprintf("%d", r.WriteErrs)},
		[]string{"read", "ops", fmt.Sprintf("%d", r.ReadOps)},
		[]string{"read", "errors", fmt.Sprintf("%d", r.ReadErrs)},
		[]string{"failover", "handovers", fmt.Sprintf("%d", r.Handovers)},
		[]string{"failover", "final_term", fmt.Sprintf("%d", r.FinalTerm)},
		[]string{"failover", "verified", fmt.Sprintf("%d", r.Verified)},
	)
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// failNode is one psid process in the chaos cluster. Its command and
// replication addresses are reserved up front and survive restarts, so
// re-pointing and resurrection never need to re-discover ports.
type failNode struct {
	idx      int
	cmdAddr  string
	replAddr string
	walDir   string
	proc     *exec.Cmd
}

// spawn (re-)execs a node. replicaOf "" boots it as the leader;
// otherwise it boots as a hot standby of that replication address
// (follower now, PROMOTE target later — its -repl listener stays
// unbound until promotion).
func (n *failNode) spawn(psidBin, replicaOf string, out io.Writer) error {
	args := []string{
		"-addr", n.cmdAddr, "-http", "",
		"-wal", n.walDir, "-fsync", "always",
		"-maxbatch", "64", "-drain", "10s",
		"-repl", n.replAddr,
	}
	if replicaOf != "" {
		args = append(args, "-replica-of", replicaOf, "-repl-id", fmt.Sprintf("node-%d", n.idx))
	}
	cmd := exec.Command(psidBin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("psiload: starting node %d: %w", n.idx, err)
	}
	n.proc = cmd
	return nil
}

// kill SIGKILLs the node — no drain, no WAL close; the crash shape
// under test.
func (n *failNode) kill() {
	if n.proc != nil {
		n.proc.Process.Kill()
		n.proc.Wait()
		n.proc = nil
	}
}

// failoverAwait polls a node's STATS until ok accepts the payload.
func failoverAwait(addr string, timeout time.Duration, what string, ok func(*service.StatsPayload) bool) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		c, err := service.Dial(addr)
		if err == nil {
			st, serr := c.Stats()
			c.Close()
			if serr == nil && ok(&st) {
				return nil
			}
			err = serr
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("psiload: %s (%s) never happened: %v", what, addr, lastErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failoverAdmin runs one admin exchange on a fresh connection.
func failoverAdmin(addr string, fn func(*service.Client) error) error {
	c, err := service.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// churnStats is one churn connection's tally. Owned by its goroutine
// until the final wg.Wait.
type churnStats struct {
	ops, errs uint64
	windows   []time.Duration
	final     map[string][]int64
}

// record folds one op outcome into the tally, opening or closing an
// unavailability window at the error/success edges.
func (st *churnStats) record(ok bool, winStart *time.Time) {
	st.ops++
	if ok {
		if !winStart.IsZero() {
			st.windows = append(st.windows, time.Since(*winStart))
			*winStart = time.Time{}
		}
		return
	}
	st.errs++
	if winStart.IsZero() {
		*winStart = time.Now()
	}
}

// RunFailover runs the failover chaos mix and returns its report. On
// an oracle failure (a lost acknowledged write, a wrong final term) it
// returns the report alongside the error so the caller can still print
// the measurements.
func RunFailover(opts FailoverOptions) (*FailoverReport, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := o.ServerOut
	if out == nil {
		out = io.Discard
	}
	const readyTimeout = 30 * time.Second

	// Reserve every node's command and replication port up front (all
	// listeners held at once so the kernel can't hand out duplicates),
	// then release them for the processes to bind.
	nodes := make([]*failNode, o.Nodes)
	var reserved []net.Listener
	for i := range nodes {
		walDir := filepath.Join(o.BaseDir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		n := &failNode{idx: i, walDir: walDir}
		for _, slot := range []*string{&n.cmdAddr, &n.replAddr} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			*slot = ln.Addr().String()
			reserved = append(reserved, ln)
		}
		nodes[i] = n
	}
	for _, ln := range reserved {
		ln.Close()
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()

	// Boot: node 0 leads, everyone else is a hot standby.
	if err := nodes[0].spawn(o.PsidBin, "", out); err != nil {
		return nil, err
	}
	if err := failoverAwait(nodes[0].cmdAddr, readyTimeout, "leader boot", func(st *service.StatsPayload) bool {
		return st.Repl != nil && st.Repl.Role == "leader"
	}); err != nil {
		return nil, err
	}
	for _, n := range nodes[1:] {
		if err := n.spawn(o.PsidBin, nodes[0].replAddr, out); err != nil {
			return nil, err
		}
	}
	for _, n := range nodes[1:] {
		if err := failoverAwait(n.cmdAddr, readyTimeout, "standby boot", func(st *service.StatsPayload) bool {
			return st.Repl != nil && st.Repl.Follower != nil && st.Repl.Follower.Connected
		}); err != nil {
			return nil, err
		}
	}
	logf("cluster up: %d nodes, leader node0 on %s", o.Nodes, nodes[0].cmdAddr)

	// Shared churn state. leaderAddr is where writes go, readAddr is
	// where reads go; the gate pauses writers (only) between ops while
	// a handover captures the acked frontier.
	var leaderAddr, readAddr atomic.Value
	leaderAddr.Store(nodes[0].cmdAddr)
	readAddr.Store(nodes[1].cmdAddr)
	var gate sync.RWMutex
	var stop atomic.Bool

	wstats := make([]churnStats, o.Writers)
	rstats := make([]churnStats, o.Readers)
	var wg sync.WaitGroup
	for w := range o.Writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &wstats[w]
			st.final = make(map[string][]int64, o.IDsPerWriter)
			var c *service.Client
			var winStart time.Time
			for i := 0; !stop.Load(); i++ {
				gate.RLock()
				id := fmt.Sprintf("w%d-%d", w, i%o.IDsPerWriter)
				p := []int64{int64(w*1_000_000 + i), int64(i % 9973)}
				del := i%7 == 3
				ok := false
				if c == nil {
					c, _ = service.Dial(leaderAddr.Load().(string))
				}
				if c != nil {
					var resp service.Response
					var err error
					if del {
						resp, err = c.Do(service.Request{Op: service.OpDel, ID: id})
					} else {
						resp, err = c.Do(service.Request{Op: service.OpSet, ID: id, P: p})
					}
					switch {
					case err != nil: // transport: the conn is dead, redial next try
						c.Close()
						c = nil
					case resp.OK:
						ok = true
						if del {
							delete(st.final, id)
						} else {
							st.final[id] = p
						}
					}
					// !resp.OK without a transport error is readonly/
					// fenced: the target is not (yet) the leader. Keep
					// retrying; the window stays open.
				}
				st.record(ok, &winStart)
				if !ok {
					time.Sleep(200 * time.Microsecond)
				}
				gate.RUnlock()
			}
			if c != nil {
				c.Close()
			}
		}()
	}
	for r := range o.Readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &rstats[r]
			var c *service.Client
			var connAddr string
			var winStart time.Time
			for i := 0; !stop.Load(); i++ {
				// Readers are not gated: read availability through the
				// handover is exactly what they measure. They chase
				// readAddr, which the orchestrator moves off the victim
				// before the kill — a live switch, not an error.
				target := readAddr.Load().(string)
				if c != nil && connAddr != target {
					c.Close()
					c = nil
				}
				ok := false
				if c == nil {
					c, _ = service.Dial(target)
					connAddr = target
				}
				if c != nil {
					q := []int64{int64((i % 1000) * 1000), int64(r * 100)}
					resp, err := c.Do(service.Request{Op: service.OpNearby, P: q, K: 10})
					if err != nil {
						c.Close()
						c = nil
					} else {
						ok = resp.OK
					}
				}
				st.record(ok, &winStart)
				if !ok {
					time.Sleep(200 * time.Microsecond)
				}
			}
			if c != nil {
				c.Close()
			}
		}()
	}

	// The handover rounds.
	begin := time.Now()
	leaderIdx := 0
	fail := func(err error) (*FailoverReport, error) {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	for round := 1; round <= o.Handovers; round++ {
		next := (leaderIdx + 1) % o.Nodes
		time.Sleep(o.RoundDur)

		// Move readers off the victim while it is still alive.
		readAddr.Store(nodes[next].cmdAddr)

		// Pause writers between ops: the acked frontier freezes, and
		// the promote target must reach it — the no-lost-acks
		// precondition of PROMOTE.
		gate.Lock()
		var head uint64
		err := failoverAdmin(nodes[leaderIdx].cmdAddr, func(c *service.Client) error {
			st, err := c.Stats()
			if err != nil {
				return err
			}
			if st.Repl == nil || st.Repl.Leader == nil {
				return fmt.Errorf("node%d reports no leader block", leaderIdx)
			}
			head = st.Repl.Leader.LastSeq
			return nil
		})
		if err != nil {
			gate.Unlock()
			return fail(err)
		}
		if err := failoverAwait(nodes[next].cmdAddr, readyTimeout, "standby catch-up", func(st *service.StatsPayload) bool {
			f := st.Repl.Follower
			return f != nil && f.AppliedSeq == head && f.LagWindows == 0
		}); err != nil {
			gate.Unlock()
			return fail(fmt.Errorf("handover %d: %w", round, err))
		}

		logf("handover %d: kill -9 node%d at seq %d, promoting node%d", round, leaderIdx, head, next)
		nodes[leaderIdx].kill()
		leaderAddr.Store(nodes[next].cmdAddr)
		gate.Unlock() // writers resume against a still-follower: the window opens

		if err := failoverAdmin(nodes[next].cmdAddr, func(c *service.Client) error {
			return c.Promote("")
		}); err != nil {
			return fail(fmt.Errorf("handover %d: PROMOTE node%d: %w", round, next, err))
		}
		for i, n := range nodes {
			if i == next || i == leaderIdx {
				continue
			}
			if err := failoverAdmin(n.cmdAddr, func(c *service.Client) error {
				return c.Follow(nodes[next].replAddr)
			}); err != nil {
				return fail(fmt.Errorf("handover %d: FOLLOW node%d -> node%d: %w", round, i, next, err))
			}
		}
		// Resurrect the victim as a standby of the new timeline. Its
		// WAL still carries the old term, so it bootstraps cleanly.
		if err := nodes[leaderIdx].spawn(o.PsidBin, nodes[next].replAddr, out); err != nil {
			return fail(err)
		}
		if err := failoverAwait(nodes[leaderIdx].cmdAddr, readyTimeout, "victim rejoin", func(st *service.StatsPayload) bool {
			return st.Repl != nil && st.Repl.Follower != nil && st.Repl.Follower.Connected
		}); err != nil {
			return fail(fmt.Errorf("handover %d: %w", round, err))
		}
		leaderIdx = next
	}

	// One more churn slice on the final topology, then quiesce.
	time.Sleep(o.RoundDur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(begin)

	rep := &FailoverReport{
		Nodes:     o.Nodes,
		Handovers: o.Handovers,
		Writers:   o.Writers,
		Readers:   o.Readers,
		Elapsed:   elapsed,
	}
	final := make(map[string][]int64)
	for i := range wstats {
		rep.WriteOps += wstats[i].ops
		rep.WriteErrs += wstats[i].errs
		rep.WriteWindows = append(rep.WriteWindows, wstats[i].windows...)
		for id, p := range wstats[i].final {
			final[id] = p
		}
	}
	for i := range rstats {
		rep.ReadOps += rstats[i].ops
		rep.ReadErrs += rstats[i].errs
		rep.ReadWindows = append(rep.ReadWindows, rstats[i].windows...)
	}
	sort.Slice(rep.WriteWindows, func(i, j int) bool { return rep.WriteWindows[i] < rep.WriteWindows[j] })
	sort.Slice(rep.ReadWindows, func(i, j int) bool { return rep.ReadWindows[i] < rep.ReadWindows[j] })
	rep.Verified = len(final)

	// The oracle: the final leader holds every acknowledged write, at
	// the exact acknowledged position, and sits at one term per
	// handover.
	finalLeader := nodes[leaderIdx]
	err = failoverAdmin(finalLeader.cmdAddr, func(c *service.Client) error {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		if st.Repl == nil {
			return fmt.Errorf("final leader reports no replication block")
		}
		rep.FinalTerm = st.Repl.Term
		if st.Repl.Role != "leader" {
			return fmt.Errorf("final topology: node%d role %q, want leader", leaderIdx, st.Repl.Role)
		}
		if st.Repl.Term != uint64(o.Handovers) {
			return fmt.Errorf("final topology: term %d after %d handovers, want %d",
				st.Repl.Term, o.Handovers, o.Handovers)
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	if err := verifyFinal(finalLeader.cmdAddr, final); err != nil {
		return rep, err
	}
	logf("final topology verified: node%d leads at term %d, %d acknowledged writes present",
		leaderIdx, rep.FinalTerm, rep.Verified)
	return rep, nil
}

// verifyFinal GETs every recorded object from addr, requiring the
// exact acknowledged position: no write a live timeline acknowledged
// may be missing or moved on the final leader.
func verifyFinal(addr string, final map[string][]int64) error {
	return failoverAdmin(addr, func(c *service.Client) error {
		var missing, wrong int
		var firstBad string
		for id, want := range final {
			got, found, err := c.Get(id)
			if err != nil {
				return fmt.Errorf("psiload: GET %s: %w", id, err)
			}
			switch {
			case !found:
				missing++
			case !slices.Equal(got, want):
				wrong++
			default:
				continue
			}
			if firstBad == "" {
				firstBad = fmt.Sprintf("%s = %v (found=%t), want %v", id, got, found, want)
			}
		}
		if missing > 0 || wrong > 0 {
			return fmt.Errorf("psiload: %d of %d acknowledged writes lost (%d missing, %d wrong); first: %s",
				missing+wrong, len(final), missing, wrong, firstBad)
		}
		return nil
	})
}
