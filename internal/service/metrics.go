package service

import (
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The per-command latency histogram lives in internal/obs (obs.Hist, the
// generalized form of the latency recorder this file used to define):
// recording is three atomic adds, so many connection goroutines record
// without contention, and quantiles are read off the power-of-two bucket
// counts — plenty for p50/p99 reporting. The same histograms are exposed
// on /metrics as psi_query_duration_ns series (see registerMetrics).

// numOps is the number of protocol commands (metrics are a fixed array
// indexed by opIndex, so recording never allocates or locks).
const numOps = 11

// opOrder is the canonical command order for stats rendering.
var opOrder = [numOps]string{OpSet, OpDel, OpGet, OpNearby, OpWithin, OpStats, OpFlush, OpSlowlog, OpPromote, OpDemote, OpFollow}

// opIndex maps a canonical op name to its metrics slot (-1 if unknown).
func opIndex(op string) int {
	for i, name := range opOrder {
		if name == op {
			return i
		}
	}
	return -1
}

// opMetrics is one command's serving record.
type opMetrics struct {
	errs atomic.Uint64
	lat  obs.Hist
}

// metrics is the server-wide counter set. Everything is atomic: handlers
// record without locks, snapshots are taken concurrently with traffic.
type metrics struct {
	ops      [numOps]opMetrics // indexed by opIndex
	badLines atomic.Uint64
	// replies counts reply lines sent to client sockets and socketWrites
	// the writes that carried them: their ratio is replies per write(2),
	// 1 for a client that waits for each reply, the burst size for one
	// that pipelines.
	replies      atomic.Uint64
	socketWrites atomic.Uint64
}

// record logs one served command (op is an opIndex slot).
func (m *metrics) record(op int, d time.Duration, ok bool) {
	if op < 0 {
		m.badLines.Add(1)
		return
	}
	m.ops[op].lat.Record(d)
	if !ok {
		m.ops[op].errs.Add(1)
	}
}

// snapshot renders the per-op map for StatsPayload, skipping ops that
// were never called.
func (m *metrics) snapshot() map[string]OpCounters {
	out := make(map[string]OpCounters, len(opOrder))
	for i, name := range opOrder {
		om := &m.ops[i]
		n := om.lat.Count()
		if n == 0 && om.errs.Load() == 0 {
			continue
		}
		out[name] = OpCounters{
			Count:  n,
			Errors: om.errs.Load(),
			MeanUs: float64(om.lat.Mean()) / 1e3,
			P50Us:  float64(om.lat.Quantile(0.50)) / 1e3,
			P99Us:  float64(om.lat.Quantile(0.99)) / 1e3,
		}
	}
	return out
}

// registerMetrics exposes the server's serving counters on reg: one
// psi_query_duration_ns histogram series per command (op label), the
// per-command error counters, protocol rejects, and the connection
// gauge. The histograms are the very structs record writes — exposition
// reads the same atomics, nothing is copied on the serving path.
func (s *Server) registerMetrics(reg *obs.Registry) {
	for i, name := range opOrder {
		lbl := obs.Label{Key: "op", Value: name}
		reg.RegisterHistogram("psi_query_duration_ns",
			"Command serving latency in nanoseconds, per protocol op.",
			&s.met.ops[i].lat, lbl)
		om := &s.met.ops[i]
		reg.CounterFunc("psi_command_errors_total",
			"Commands that returned an error response, per protocol op.",
			om.errs.Load, lbl)
	}
	reg.CounterFunc("psi_bad_lines_total",
		"Protocol-level rejects (unparseable or oversized lines).",
		s.met.badLines.Load)
	reg.CounterFunc("psi_service_replies_total",
		"Reply lines sent to client sockets.",
		s.met.replies.Load)
	reg.CounterFunc("psi_service_socket_writes_total",
		"Socket writes that carried the reply lines; replies per write is the pipelining the clients achieve.",
		s.met.socketWrites.Load)
	reg.GaugeFunc("psi_conns",
		"Currently open client connections.",
		func() float64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return float64(n)
		})
	// The two ends of the GC cycle, always on (unlike the /stats GC
	// counters behind -pprof, these cost one runtime/metrics read per
	// scrape): peak RSS tracks the goal, not the live heap, and the ratio
	// of the two is the GOGC factor an operator is paying.
	reg.GaugeFunc("psi_heap_live_bytes",
		"Heap bytes the last completed GC cycle found live.",
		runtimeGauge("/gc/heap/live:bytes"))
	reg.GaugeFunc("psi_heap_goal_bytes",
		"Heap size at which the next GC cycle finishes (live heap times the GOGC factor).",
		runtimeGauge("/gc/heap/goal:bytes"))
	if s.slow != nil {
		reg.CounterFunc("psi_slow_queries_total",
			"Commands slower than the -slowlog threshold.",
			s.slow.Total)
	}
	if !s.roleIs(roleNone) {
		s.registerReplMetrics(reg)
	}
	reg.GaugeFunc("psi_repl_role",
		"Replication role: 0 none, 1 leader, 2 follower, 3 fenced.",
		func() float64 { return float64(s.role.Load()) })
	reg.GaugeFunc("psi_repl_term",
		"Leader term this server has adopted (journaled in its WAL snapshot).",
		func() float64 {
			if s.wal == nil {
				return 0
			}
			return float64(s.wal.Term())
		})
	reg.CounterFunc("psi_repl_role_changes_total",
		"Role transitions this process (promotions, demotions, deposals, re-points).",
		s.roleChanges.Load)
}

// runtimeGauge reads one uint64 runtime/metrics sample per call; a name
// this Go version does not know reads 0.
func runtimeGauge(name string) func() float64 {
	return func() float64 {
		sample := [1]rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample[:])
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
}
