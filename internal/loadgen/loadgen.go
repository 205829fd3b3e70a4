// Package loadgen is psid's load and chaos tooling, behind cmd/psiload:
// the load generator (this file: N client connections through a
// mover/query mix, client-observed p50/p99 and ops/sec per op), the
// kill -9 / PROMOTE failover harness and the /metrics differ. It reaches
// a server only the way any client does — service.Client and the
// exposition — so it sits beside the server package, not in it.
package loadgen

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// LoadOptions configures one load run. Zero fields take defaults.
type LoadOptions struct {
	Addr  string // psid command address (required)
	Conns int    // concurrent connections; default 8

	// Objects is the tracked-ID space, split evenly across connections
	// (each connection owns ids congruent to its index, so SETs never
	// race on one ID and the final position of every object is
	// deterministic per seed). Default 10_000.
	Objects int
	Dims    int   // point dimensionality; default 2
	Side    int64 // coordinate range [0, Side]; default 1e9

	// Duration and TotalOps are alternative stop conditions: run for a
	// wall-clock duration, or until TotalOps requests completed across
	// all connections (whichever is set; TotalOps wins if both).
	// Default: 5s.
	Duration time.Duration
	TotalOps int

	// SetFrac and NearbyFrac split the request mix; the remainder is
	// WITHIN. Leaving both zero selects the default 0.6/0.3 write-heavy
	// tracker mix; setting either makes both literal (so SetFrac 0 with
	// NearbyFrac 0.5 really issues no SETs). Negative values or a sum
	// above 1 are rejected.
	SetFrac, NearbyFrac float64
	// HopFrac is the SET move distance as a fraction of Side (bounded
	// random hops, like the fleet benchmark); default 0.01.
	HopFrac float64
	// BoxFrac is the WITHIN box half-extent as a fraction of Side;
	// default 0.005.
	BoxFrac float64
	K       int   // NEARBY k; default 10
	Seed    int64 // default 42

	// TrackFinal records the last acknowledged position of every object
	// this run SET, into LoadReport.Final. Each connection owns a
	// disjoint ID slice, so the map is exact, not racy. The
	// crash-recovery smoke uses it: run with -final, kill the server
	// without ceremony, restart, and VerifyFinal must find every
	// acknowledged write.
	TrackFinal bool

	// Followers routes the read side of the mix to replicas: SETs still
	// go to Addr (the leader — followers refuse writes), while each
	// connection sends its NEARBY/WITHIN queries to
	// Followers[conn % len(Followers)]. This is the replicated serving
	// shape psid -repl / -replica-of exists for: one writer, fanned-out
	// reads, each query seeing the replica's (bounded-lag) snapshot.
	// Empty keeps every op on Addr.
	Followers []string
}

func (o LoadOptions) withDefaults() (LoadOptions, error) {
	if o.Conns <= 0 {
		o.Conns = 8
	}
	if o.Objects <= 0 {
		o.Objects = 10_000
	}
	// Every connection needs at least one owned ID; extra connections
	// would otherwise sit idle and silently drop their TotalOps share.
	if o.Conns > o.Objects {
		o.Conns = o.Objects
	}
	if o.Dims == 0 {
		o.Dims = 2
	}
	if o.Side <= 0 {
		o.Side = 1_000_000_000
	}
	if o.Duration <= 0 && o.TotalOps <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.SetFrac == 0 && o.NearbyFrac == 0 {
		o.SetFrac, o.NearbyFrac = 0.6, 0.3
	}
	if o.SetFrac < 0 || o.NearbyFrac < 0 || o.SetFrac+o.NearbyFrac > 1 {
		return o, fmt.Errorf("psiload: bad mix: set=%v nearby=%v (each must be >= 0, sum <= 1)",
			o.SetFrac, o.NearbyFrac)
	}
	if o.HopFrac <= 0 {
		o.HopFrac = 0.01
	}
	if o.BoxFrac <= 0 {
		o.BoxFrac = 0.005
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o, nil
}

// OpLoad is the client-observed record for one command type.
type OpLoad struct {
	Op        string
	Count     uint64
	Errors    uint64
	OpsPerSec float64
	Mean      time.Duration
	P50       time.Duration
	P99       time.Duration
}

// LoadReport aggregates a load run.
type LoadReport struct {
	Elapsed   time.Duration
	Conns     int
	Ops       uint64
	Errors    uint64
	OpsPerSec float64
	Total     OpLoad   // all ops merged
	PerOp     []OpLoad // SET, NEARBY, WITHIN (ops actually issued)
	// Server carries the server-side /metrics deltas when the caller
	// scraped around the run (psiload -scrape); nil otherwise.
	Server *ServerDelta
	// Final maps every SET object ID to its last acknowledged
	// coordinates (LoadOptions.TrackFinal; nil otherwise).
	Final map[string][]int64
}

// loadOps are the command classes the generator issues.
var loadOps = [...]string{service.OpSet, service.OpNearby, service.OpWithin}

// RunLoad drives the server at opts.Addr. It dials opts.Conns
// connections, issues the SET/NEARBY/WITHIN mix from one goroutine per
// connection (each timing every request round trip), and aggregates the
// per-op histograms into a report. The run is deterministic in Seed up
// to scheduling: connection i owns objects i, i+Conns, ... and replays
// its own PRNG stream.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Addr == "" {
		return nil, fmt.Errorf("psiload: no server address")
	}
	clients := make([]*service.Client, o.Conns)
	queriers := make([]*service.Client, o.Conns) // where this conn's NEARBY/WITHIN go
	closeAll := func() {
		for i := range clients {
			if clients[i] != nil {
				clients[i].Close()
			}
			if queriers[i] != nil && queriers[i] != clients[i] {
				queriers[i].Close()
			}
		}
	}
	for i := range clients {
		c, err := service.Dial(o.Addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		clients[i] = c
		queriers[i] = c
		if len(o.Followers) > 0 {
			q, err := service.Dial(o.Followers[i%len(o.Followers)])
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("psiload: follower %s: %w", o.Followers[i%len(o.Followers)], err)
			}
			queriers[i] = q
		}
	}
	defer closeAll()

	type connStats struct {
		lat   [len(loadOps)]obs.Hist
		errs  [len(loadOps)]uint64
		err   error
		final map[string][]int64
	}
	stats := make([]connStats, o.Conns)
	deadline := time.Time{}
	if o.TotalOps <= 0 {
		deadline = time.Now().Add(o.Duration)
	}
	var wg sync.WaitGroup
	begin := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c, qc *service.Client) {
			defer wg.Done()
			st := &stats[i]
			rng := rand.New(rand.NewSource(o.Seed + int64(i)))
			// This connection's slice of the ID space and its private
			// view of their positions (SETs are bounded hops from here,
			// NEARBY/WITHIN probe around here — an in-distribution mix).
			ids := make([]string, 0, o.Objects/o.Conns+1)
			pos := make([][]int64, 0, o.Objects/o.Conns+1)
			for id := i; id < o.Objects; id += o.Conns {
				p := make([]int64, o.Dims)
				for d := range p {
					p[d] = rng.Int63n(o.Side + 1)
				}
				ids = append(ids, fmt.Sprintf("obj-%07d", id))
				pos = append(pos, p)
			}
			if len(ids) == 0 {
				return
			}
			step := int64(o.HopFrac * float64(o.Side))
			if step < 1 {
				step = 1
			}
			half := int64(o.BoxFrac * float64(o.Side))
			if half < 1 {
				half = 1
			}
			quota := -1
			if o.TotalOps > 0 {
				quota = o.TotalOps / o.Conns
				if i < o.TotalOps%o.Conns {
					quota++
				}
			}
			for n := 0; quota < 0 || n < quota; n++ {
				if quota < 0 && time.Now().After(deadline) {
					return
				}
				j := rng.Intn(len(ids))
				r := rng.Float64()
				var op int
				var err error
				t0 := time.Now()
				switch {
				case r < o.SetFrac:
					op = 0
					p := pos[j]
					for d := range p {
						v := p[d] + rng.Int63n(2*step+1) - step
						if v < 0 {
							v = 0
						} else if v > o.Side {
							v = o.Side
						}
						p[d] = v
					}
					err = c.Set(ids[j], p)
					if err == nil && o.TrackFinal {
						if st.final == nil {
							st.final = make(map[string][]int64, len(ids))
						}
						cp := st.final[ids[j]]
						if cp == nil {
							cp = make([]int64, len(p))
							st.final[ids[j]] = cp
						}
						copy(cp, p) // p is mutated in place next hop
					}
				case r < o.SetFrac+o.NearbyFrac:
					op = 1
					_, err = qc.Nearby(pos[j], o.K)
				default:
					op = 2
					lo := make([]int64, o.Dims)
					hi := make([]int64, o.Dims)
					for d := range lo {
						lo[d] = max(0, pos[j][d]-half)
						hi[d] = min(o.Side, pos[j][d]+half)
					}
					_, err = qc.Within(lo, hi)
				}
				st.lat[op].Record(time.Since(t0))
				if err != nil {
					st.errs[op]++
					if _, proto := err.(*service.ServerError); !proto {
						st.err = err // transport error: this connection is done
						return
					}
				}
			}
		}(i, c, queriers[i])
	}
	wg.Wait()
	elapsed := time.Since(begin)

	var merged [len(loadOps)]obs.Hist
	var errs [len(loadOps)]uint64
	var firstErr error
	for i := range stats {
		for k := range loadOps {
			merged[k].Merge(&stats[i].lat[k])
			errs[k] += stats[i].errs[k]
		}
		if firstErr == nil && stats[i].err != nil {
			firstErr = fmt.Errorf("conn %d: %w", i, stats[i].err)
		}
	}
	rep := &LoadReport{Elapsed: elapsed, Conns: o.Conns}
	if o.TrackFinal {
		rep.Final = make(map[string][]int64)
		for i := range stats {
			for id, p := range stats[i].final {
				rep.Final[id] = p
			}
		}
	}
	var total obs.Hist
	for k, name := range loadOps {
		n := merged[k].Count()
		if n == 0 && errs[k] == 0 {
			continue
		}
		rep.PerOp = append(rep.PerOp, opLoad(name, &merged[k], errs[k], elapsed))
		total.Merge(&merged[k])
		rep.Ops += n
		rep.Errors += errs[k]
	}
	rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	rep.Total = opLoad("total", &total, rep.Errors, elapsed)
	if rep.Ops == 0 && firstErr != nil {
		return nil, firstErr // nothing succeeded: surface the transport error
	}
	return rep, firstErr
}

// VerifyFinal dials addr and GETs every recorded object, requiring the
// exact acknowledged position. It is the read side of
// LoadOptions.TrackFinal: run a tracked load against a durable server,
// kill and restart it, then VerifyFinal proves no acknowledged write
// was lost (psiload -verify; the CI crash smoke is exactly this).
func VerifyFinal(addr string, final map[string][]int64) error {
	c, err := service.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var missing, wrong int
	var firstBad string
	for id, want := range final {
		got, found, err := c.Get(id)
		if err != nil {
			return fmt.Errorf("psiload: GET %s: %w", id, err)
		}
		bad := false
		if !found {
			missing++
			bad = true
		} else if len(got) != len(want) {
			wrong++
			bad = true
		} else {
			for d := range want {
				if got[d] != want[d] {
					wrong++
					bad = true
					break
				}
			}
		}
		if bad && firstBad == "" {
			firstBad = fmt.Sprintf("%s = %v (found=%t), want %v", id, got, found, want)
		}
	}
	if missing > 0 || wrong > 0 {
		return fmt.Errorf("psiload: %d of %d acknowledged writes lost (%d missing, %d wrong); first: %s",
			missing+wrong, len(final), missing, wrong, firstBad)
	}
	return nil
}

func opLoad(name string, h *obs.Hist, errs uint64, elapsed time.Duration) OpLoad {
	return OpLoad{
		Op:        name,
		Count:     h.Count(),
		Errors:    errs,
		OpsPerSec: float64(h.Count()) / elapsed.Seconds(),
		Mean:      h.Mean(),
		P50:       h.Quantile(0.50),
		P99:       h.Quantile(0.99),
	}
}

// Format pretty-prints the report.
func (r *LoadReport) Format(w io.Writer) {
	fmt.Fprintf(w, "psiload: %d conns, %d ops in %.2fs (%.0f ops/s, %d errors)\n",
		r.Conns, r.Ops, r.Elapsed.Seconds(), r.OpsPerSec, r.Errors)
	fmt.Fprintf(w, "%-8s %10s %10s %12s %10s %10s %10s\n",
		"op", "count", "errors", "ops/s", "mean", "p50", "p99")
	for _, o := range append(r.PerOp, r.Total) {
		fmt.Fprintf(w, "%-8s %10d %10d %12.0f %10s %10s %10s\n",
			o.Op, o.Count, o.Errors, o.OpsPerSec, o.Mean, o.P50, o.P99)
	}
	if r.Server != nil {
		r.Server.format(w)
	}
}

// WriteCSV emits the report as machine-readable rows, one per op class
// plus a "total" row — the serving path's measurement log, mirroring
// what psibench -csv does for the in-process experiments.
func (r *LoadReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"op", "count", "errors", "ops_per_sec", "mean_us", "p50_us", "p99_us"}); err != nil {
		return err
	}
	for _, o := range append(r.PerOp, r.Total) {
		if err := cw.Write([]string{
			o.Op,
			fmt.Sprintf("%d", o.Count),
			fmt.Sprintf("%d", o.Errors),
			fmt.Sprintf("%.1f", o.OpsPerSec),
			fmt.Sprintf("%.1f", float64(o.Mean)/1e3),
			fmt.Sprintf("%.1f", float64(o.P50)/1e3),
			fmt.Sprintf("%.1f", float64(o.P99)/1e3),
		}); err != nil {
			return err
		}
	}
	if r.Server != nil {
		rows := [][]string{
			{"server:flushes", fmt.Sprintf("%.0f", r.Server.Flushes)},
			{"server:raw_ops", fmt.Sprintf("%.0f", r.Server.RawOps)},
			{"server:netted_ops", fmt.Sprintf("%.0f", r.Server.NettedOps)},
			{"server:cancelled", fmt.Sprintf("%.0f", r.Server.Cancelled)},
			{"server:netted_ratio", fmt.Sprintf("%.3f", r.Server.NettedRatio)},
			{"server:slow_queries", fmt.Sprintf("%.0f", r.Server.SlowQueries)},
			{"server:shard_ops_min", fmt.Sprintf("%.0f", r.Server.ShardOpsMin)},
			{"server:shard_ops_max", fmt.Sprintf("%.0f", r.Server.ShardOpsMax)},
		}
		// Server rows reuse the op column and leave the latency columns
		// empty: one CSV, greppable by the "server:" prefix.
		for _, row := range rows {
			if err := cw.Write(append(row, "", "", "", "", "")); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
