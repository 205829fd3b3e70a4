//go:build race

package service

// raceEnabled reports whether the race detector is compiled in; the
// serving-path allocation guard skips under it, like the Collection's,
// because instrumentation heap-allocates the query closures.
const raceEnabled = true
