//go:build race

package epoch

// raceEnabled reports whether the race detector is compiled in; the query
// alloc guard skips under it because sync.Pool then drops items at random.
const raceEnabled = true
