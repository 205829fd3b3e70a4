package shard

import "fmt"

// Validate checks the sharding invariants and returns the first
// violation (tests run it after every mutation round):
//
//  1. run boundaries are monotone and cover every cell exactly once;
//  2. every stored point lies inside its shard's region box — the
//     soundness condition for query pruning;
//  3. every stored point maps back to the shard holding it, so future
//     deletes of that point are routed to the right sub-index.
func (s *Sharded) Validate() error {
	part := s.part
	if part.bounds[0] != 0 || part.bounds[part.shards] != len(part.order) {
		return fmt.Errorf("shard: bounds span [%d, %d), want [0, %d)",
			part.bounds[0], part.bounds[part.shards], len(part.order))
	}
	seen := make([]bool, len(part.order))
	for i := 0; i < part.shards; i++ {
		if part.bounds[i] > part.bounds[i+1] {
			return fmt.Errorf("shard: bounds not monotone at %d: %d > %d",
				i, part.bounds[i], part.bounds[i+1])
		}
		for _, c := range part.order[part.bounds[i]:part.bounds[i+1]] {
			if seen[c] {
				return fmt.Errorf("shard: cell %d assigned twice", c)
			}
			seen[c] = true
			if got := part.cellShard[c]; got != uint16(i) {
				return fmt.Errorf("shard: cell %d table says shard %d, run says %d", c, got, i)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: cell %d assigned to no shard", c)
		}
	}
	for i, idx := range s.shards {
		pts := idx.RangeList(s.opts.Universe, nil)
		if size := idx.Size(); len(pts) != size {
			return fmt.Errorf("shard %d: %d points in universe, Size() %d (point outside universe?)",
				i, len(pts), size)
		}
		for _, p := range pts {
			if !part.regions[i].Contains(p, part.dims) {
				return fmt.Errorf("shard %d: stored point %v outside region %v",
					i, p, part.regions[i])
			}
			if got := part.shardOf(p); got != i {
				return fmt.Errorf("shard %d: stored point %v routes to shard %d", i, p, got)
			}
		}
	}
	return nil
}
