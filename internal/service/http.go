package service

// The HTTP probe listener's handlers: health, stats, metrics and the two
// debug rings.

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.closing.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(marshalLine(map[string]any{"ok": false, "state": "draining"}))
		return
	}
	// A failed WAL means acknowledged writes may no longer be durable:
	// the server is up but should be rotated out, so health goes red.
	if s.walFailed.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(marshalLine(map[string]any{"ok": false, "state": "wal_failed"}))
		return
	}
	body := map[string]any{"ok": true, "uptime_s": time.Since(s.start).Seconds()}
	// Replication position rides on health so an orchestrator (and the
	// CI smoke) can gate on lag with one probe. By default a disconnected
	// or lagging follower stays green: it serves reads from its
	// last-applied state and reconnects on its own — staleness is visible
	// in lag_windows, and whether to route around it is the balancer's
	// policy call. Options.MaxLagWindows opts into making that call here:
	// past the threshold (or while disconnected) the probe goes 503 so
	// stale reads are routed away.
	status := http.StatusOK
	// Role and session pointer come from one replMu section: every role
	// change that touches replFoll holds the lock across both. A
	// -replica-of server has the role before Start has built its
	// session; until then it is a follower that is not connected.
	s.replMu.Lock()
	role, foll := replRole(s.role.Load()), s.replFoll
	s.replMu.Unlock()
	switch role {
	case roleLeader:
		body["role"] = "leader"
		body["repl_seq"] = s.hub.LastSeq()
		body["term"] = s.wal.Term()
	case roleFollower:
		var st repl.FollowerStatus
		if foll != nil {
			st = foll.Status()
		}
		body["role"] = "follower"
		body["repl_connected"] = st.Connected
		body["applied_seq"] = st.AppliedSeq
		body["lag_windows"] = st.LagWindows
		body["term"] = s.wal.Term()
		if max := s.opts.MaxLagWindows; max > 0 && (!st.Connected || st.LagWindows > uint64(max)) {
			body["ok"] = false
			body["state"] = "lagging"
			body["lag"] = st.LagWindows
			status = http.StatusServiceUnavailable
		}
	case roleFenced:
		body["role"] = "fenced"
		body["term"] = s.wal.Term()
	}
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(marshalLine(body))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(marshalLine(s.Stats()))
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry: per-command latency histograms, flush counters and stage
// timings, epoch gauges (docs/observability.md has the catalog).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// flushSpanJSON is the /debug/flushtrace wire form of one obs.FlushSpan,
// with the stage array unrolled into named fields.
type flushSpanJSON struct {
	Seq           uint64 `json:"seq"`
	Layer         string `json:"layer"`
	StartUnixNano int64  `json:"start_unix_nano"`
	NetNs         int64  `json:"net_ns"`
	LogNs         int64  `json:"log_ns"`
	ReplayNs      int64  `json:"replay_ns"`
	ApplyNs       int64  `json:"apply_ns"`
	PublishNs     int64  `json:"publish_ns"`
	DrainNs       int64  `json:"drain_ns"`
	RawOps        int    `json:"raw_ops"`
	NettedOps     int    `json:"netted_ops"`
	Cancelled     int    `json:"cancelled"`
	Epoch         uint64 `json:"epoch"`
}

// handleFlushTrace serves the retained flush spans, oldest first, as a
// JSON array (empty array, never null, when nothing has flushed).
func (s *Server) handleFlushTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.reg.FlushTrace().Snapshot()
	out := make([]flushSpanJSON, 0, len(spans))
	for _, sp := range spans {
		out = append(out, flushSpanJSON{
			Seq:           sp.Seq,
			Layer:         sp.Layer,
			StartUnixNano: sp.Start,
			NetNs:         sp.Stages[obs.StageNet],
			LogNs:         sp.Stages[obs.StageLog],
			ReplayNs:      sp.Stages[obs.StageReplay],
			ApplyNs:       sp.Stages[obs.StageApply],
			PublishNs:     sp.Stages[obs.StagePublish],
			DrainNs:       sp.Stages[obs.StageDrain],
			RawOps:        sp.RawOps,
			NettedOps:     sp.NettedOps,
			Cancelled:     sp.Cancelled,
			Epoch:         sp.Epoch,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(marshalLine(out))
}

// slowEntries returns the retained slow queries, newest first (empty,
// never nil, so the endpoint always serves a JSON array).
func (s *Server) slowEntries() []obs.SlowQuery {
	if sn := s.slow.Snapshot(); sn != nil {
		return sn
	}
	return []obs.SlowQuery{}
}

// handleSlowlog serves the slow-query ring as a JSON array (empty when
// the log is disabled or nothing has crossed the threshold).
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(marshalLine(s.slowEntries()))
}
