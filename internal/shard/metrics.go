package shard

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// shardMetrics is the Sharded observability hook set, created once in
// New when Options.Obs is given and shared by every replica (see
// NewReplica). The per-shard series are the direct input a future
// rebalancer needs: where batch ops land, which shards queries touch,
// how wide queries fan out, and how many shards each KNN expands.
type shardMetrics struct {
	flushes  atomic.Uint64
	ops      []*obs.Counter // batch ops (inserts+deletes) applied per shard
	queries  []*obs.Counter // queries that touched each shard
	knnExp   []*obs.Counter // KNN expansions per shard
	fanout   *obs.Hist      // shards touched per query
	flushDur *obs.Hist
	trace    *obs.FlushTrace
}

func newShardMetrics(r *obs.Registry, s *Sharded) *shardMetrics {
	n := s.opts.Shards
	layer := obs.Label{Key: "layer", Value: "shard"}
	m := &shardMetrics{
		ops:     make([]*obs.Counter, n),
		queries: make([]*obs.Counter, n),
		knnExp:  make([]*obs.Counter, n),
		fanout: r.Histogram("psi_query_fanout_shards",
			"Shards touched per fan-out query (count histogram, not nanoseconds)."),
		flushDur: r.Histogram("psi_flush_duration_ns",
			"Flush wall time in nanoseconds, summed over pipeline stages.",
			layer),
		trace: r.FlushTrace(),
	}
	r.CounterFunc("psi_flush_total",
		"Flush windows applied to the index.",
		m.flushes.Load, layer)
	for i := range n {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.ops[i] = r.Counter("psi_shard_ops_total",
			"Batch mutations (inserts plus deletes) applied per shard.", lbl)
		m.queries[i] = r.Counter("psi_shard_queries_total",
			"Queries that touched each shard.", lbl)
		m.knnExp[i] = r.Counter("psi_shard_knn_expansions_total",
			"KNN best-first expansions per shard.", lbl)
	}
	return m
}

// recordQuery accounts one fan-out query that touched the given shards.
func (m *shardMetrics) recordQuery(ids []int) {
	if m == nil {
		return
	}
	m.fanout.Observe(int64(len(ids)))
	for _, id := range ids {
		m.queries[id].Inc()
	}
}
