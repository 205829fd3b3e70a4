// Package epoch implements the left-right version manager behind the
// library's snapshot reads: a writer publishes immutable versions of a
// point index through an atomic pointer, readers pin the current version
// with a per-version reference count, and the writer reclaims a retired
// version for reuse only after every reader that could hold it has left. The
// protocol gives readers wait-freedom against writers — a query never
// blocks behind a flush, no matter how large the commit window — while the
// writer pays one bounded wait (for stragglers still inside the retired
// version) per publish.
//
// The shape is double-buffering, and Cell (cell.go) is its one
// implementation and the package's whole surface to the layers above: it
// keeps exactly two Versions and ping-pongs between them. Each commit
// applies the window to the standby, publishes it, waits for the old
// current to drain, catches it up and keeps it as the next standby. Both
// Version structs live for the lifetime of the layer, so steady-state
// publishing allocates nothing — the property the Cell's and the
// Collection's zero-alloc guards pin. The two Versions are handles on one
// copy-on-write index (core.Adopter — the SPaC family and P-Orth, as
// trees or sharded): the paper's batch updates rebuild only the paths a
// batch reaches, so the window is applied once, each handle copies what it
// touches, and the catch-up is an adoption of the published root. State a
// layer keeps beside its versions (the Collection's slot table) is written
// by the step the layer hands the Cell (beside), which a commit runs
// between WaitDrained and the catch-up; readers check, after pinning, that
// that state has reached their epoch.
//
// Memory model: Publish is an atomic pointer store and Pin an atomic load,
// so everything the writer did to a version's data before Publish is
// visible to a reader that pins it. After WaitDrained(v) returns, no
// reader holds v and the writer may mutate v.Index freely until the next
// Publish(v).
package epoch

import (
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// Version is one publishable index plus its reader reference count. The
// writer owns Index exclusively from WaitDrained until the next Publish;
// readers own it shared from Pin to Unpin.
type Version struct {
	Index core.Index
	epoch uint64
	refs  atomic.Int64
}

// Epoch returns the epoch number at which this version was last
// published (0 for the initial version).
func (v *Version) Epoch() uint64 { return v.epoch }

// Manager publishes Versions and tracks the epoch counters. The zero
// value is not usable: call Init with the initial version first. Pin,
// Unpin, Epoch, RetireLag and Current are safe for any number of
// goroutines; Publish and WaitDrained must be serialized by the caller
// (Cell holds its writer lock across both).
type Manager struct {
	cur       atomic.Pointer[Version]
	published atomic.Uint64
	drained   atomic.Uint64
}

// Init installs the initial version at epoch 0. It must be called exactly
// once, before any other method.
func (m *Manager) Init(v *Version) { m.cur.Store(v) }

// Pin returns the current version with its reference count held. The
// caller must Unpin the same version when done. The recheck loop closes
// the race with a concurrent Publish: a reader that loads v but
// increments its count after the writer already swapped v out simply
// retries on the new current, so WaitDrained never misses a reader.
func (m *Manager) Pin() *Version {
	for {
		v := m.cur.Load()
		v.refs.Add(1)
		if m.cur.Load() == v {
			return v
		}
		v.refs.Add(-1)
	}
}

// Unpin releases a version returned by Pin.
func (m *Manager) Unpin(v *Version) { v.refs.Add(-1) }

// Current returns the current version without pinning it. Callers may
// only touch its Index if they otherwise exclude Publish (Cell's writer
// lock does).
func (m *Manager) Current() *Version { return m.cur.Load() }

// Publish makes next the current version under a new epoch number and
// returns the displaced version, which the caller retires with
// WaitDrained before reusing its Index.
func (m *Manager) Publish(next *Version) *Version {
	next.epoch = m.published.Add(1)
	prev := m.cur.Load()
	m.cur.Store(next)
	return prev
}

// WaitDrained blocks until no reader holds v, then records the retirement.
// New readers cannot arrive (v is no longer current), so the wait is
// bounded by the in-flight queries at the moment of Publish. The spin
// yields the processor each round: readers hold pins only across a single
// index query, so the common case drains in a handful of iterations.
func (m *Manager) WaitDrained(v *Version) {
	for v.refs.Load() != 0 {
		runtime.Gosched()
	}
	m.drained.Add(1)
}

// Epoch returns the number of versions published so far — the epoch
// number of the current version (0 before the first Publish).
func (m *Manager) Epoch() uint64 { return m.published.Load() }

// RetireLag returns the number of published epochs whose displaced
// version has not yet drained: 0 when quiescent, 1 while a flush is
// waiting out readers of the version it just replaced.
func (m *Manager) RetireLag() uint64 { return m.published.Load() - m.drained.Load() }
