package service

import (
	"strings"

	"repro/internal/geom"
	"repro/internal/obs"
)

// dispatch parses and executes one command line, returning the metrics
// slot (-1 for protocol-level rejects) and the pre-wire result. The parse
// reuses the connection's Request (slice fields keep their capacity; its
// strings alias line, so whatever outlives the call is copied — cloned
// here, or a SET or DEL's ID by the Collection's pending window) and
// query hits land in the connection's entry scratch; result.entries then
// aliases cs.entries and is valid until the next dispatch on the same
// connection. cs.cost is reset and, by NEARBY and WITHIN, filled with the
// query's work for the slow-query log.
func (s *Server) dispatch(line []byte, cs *connState) (int, result) {
	cs.cost = obs.QueryCost{}
	req := &cs.req
	if err := parseRequest(line, req); err != nil {
		return -1, errResultf(CodeBadRequest, "parse: %v", err)
	}
	op := strings.ToUpper(req.Op)
	idx := opIndex(op)
	if idx < 0 {
		return -1, errResultf(CodeBadRequest, "unknown op %q", req.Op)
	}
	switch op {
	case OpSet:
		if r := s.rejectWrite(op); r != nil {
			return idx, *r
		}
		if req.ID == "" {
			return idx, errResult(CodeBadRequest, "SET: missing id")
		}
		p, err := point(req.P, s.dims)
		if err != nil {
			return idx, errResultf(CodeBadRequest, "SET %q: %v", req.ID, err)
		}
		// Checked before the point is enqueued and journaled: past this line
		// it reaches the index, on the leader, on every follower and on
		// every replay of the log.
		if err := s.inUniverse(req.ID, p); err != nil {
			return idx, errResultf(CodeBadRequest, "SET %v", err)
		}
		s.coll.Set(req.ID, p) // the pending window copies the ID
		if r := s.commitDurable(); r != nil {
			return idx, *r
		}
		return idx, result{ok: true}
	case OpDel:
		if r := s.rejectWrite(op); r != nil {
			return idx, *r
		}
		if req.ID == "" {
			return idx, errResult(CodeBadRequest, "DEL: missing id")
		}
		s.coll.Remove(req.ID)
		if r := s.commitDurable(); r != nil {
			return idx, *r
		}
		return idx, result{ok: true}
	case OpGet:
		if req.ID == "" {
			return idx, errResult(CodeBadRequest, "GET: missing id")
		}
		p, found := s.coll.Get(req.ID)
		res := result{ok: true, found: found}
		if found {
			res.p, res.hasP = p, true
		}
		return idx, res
	case OpNearby:
		p, err := point(req.P, s.dims)
		if err != nil {
			return idx, errResultf(CodeBadRequest, "NEARBY: %v", err)
		}
		if req.K <= 0 {
			return idx, errResultf(CodeBadRequest, "NEARBY: k must be positive, got %d", req.K)
		}
		// k comes off the wire and the KNN machinery allocates O(k)
		// up front; an uncapped value is a one-line remote OOM/panic.
		if req.K > MaxNearbyK {
			return idx, errResultf(CodeBadRequest, "NEARBY: k %d exceeds the maximum %d", req.K, MaxNearbyK)
		}
		cs.entries = s.coll.NearbyIDsAppendCost(p, req.K, cs.entries[:0], &cs.cost)
		return idx, result{ok: true, hasHits: true, entries: cs.entries}
	case OpWithin:
		lo, err := point(req.Lo, s.dims)
		if err != nil {
			return idx, errResultf(CodeBadRequest, "WITHIN lo: %v", err)
		}
		hi, err := point(req.Hi, s.dims)
		if err != nil {
			return idx, errResultf(CodeBadRequest, "WITHIN hi: %v", err)
		}
		for d := 0; d < s.dims; d++ {
			if lo[d] > hi[d] {
				return idx, errResultf(CodeBadRequest, "WITHIN: inverted box on dim %d (%d > %d)", d, lo[d], hi[d])
			}
		}
		cs.entries = s.coll.WithinIDsAppendCost(geom.BoxOf(lo, hi), cs.entries[:0], &cs.cost)
		return idx, result{ok: true, hasHits: true, entries: cs.entries}
	case OpStats:
		st := s.Stats()
		return idx, result{ok: true, stats: &st}
	case OpFlush:
		// A follower's flushes belong to the replication applier alone:
		// a client-triggered flush would journal a window under a stale
		// leader sequence.
		if r := s.rejectWrite(op); r != nil {
			return idx, *r
		}
		return idx, result{ok: true, applied: s.coll.Flush(), hasApplied: true}
	case OpSlowlog:
		if s.slow == nil {
			return idx, errResult(CodeBadRequest, "slow-query log disabled (start the server with a -slowlog threshold)")
		}
		return idx, result{ok: true, hasSlow: true, slow: s.slow.Snapshot()}
	case OpPromote:
		if err := s.Promote(strings.Clone(req.Addr)); err != nil {
			return idx, errResultf(CodeBadRequest, "PROMOTE: %v", err)
		}
		return idx, result{ok: true}
	case OpDemote:
		if err := s.Demote(strings.Clone(req.Addr)); err != nil {
			return idx, errResultf(CodeBadRequest, "DEMOTE: %v", err)
		}
		return idx, result{ok: true}
	case OpFollow:
		if req.Addr == "" {
			return idx, errResult(CodeBadRequest, "FOLLOW: missing addr")
		}
		if err := s.Follow(strings.Clone(req.Addr)); err != nil {
			return idx, errResultf(CodeBadRequest, "FOLLOW: %v", err)
		}
		return idx, result{ok: true}
	}
	return -1, errResultf(CodeBadRequest, "unknown op %q", req.Op) // unreachable
}
