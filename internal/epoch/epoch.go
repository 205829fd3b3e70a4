// Package epoch implements the version cell behind the library's read
// modes (Cell, cell.go): the one place a point index's readers are kept
// off its writer. Every read holds one RWMutex shared, from Acquire to
// Release, in either mode; what the modes change is how long a commit
// holds it exclusively.
//
// Over one copy a commit write-locks it for the whole apply. Over two
// handles on one copy-on-write index (core.Adopter — the SPaC family and
// P-Orth, as trees or sharded) the commit applies the window to the
// off-line handle with no lock held — the paper's batch updates rebuild
// only the paths a batch reaches, so the handle copies what it touches and
// the published one stays intact under its readers — and then takes the
// write lock: the drain, which waits out the reads in flight. Holding it,
// the commit runs the step the layer keeps beside its versions (the
// Collection's slot table, beside) and publishes the applied handle under
// a new epoch. It unlocks and has the displaced handle, which no reader can
// reach any more, adopt the published one, so the window is applied once.
// A query therefore never waits on the index apply; one that arrives during
// a drain waits for it and for the beside step.
//
// Both Version structs live for the lifetime of the cell, so steady-state
// commits allocate nothing — the property the Cell's and the Collection's
// zero-alloc guards pin.
package epoch

import "repro/internal/core"

// Version is one publishable index and the epoch at which it was last
// published. A reader owns it shared from Cell.Acquire to Cell.Release.
type Version struct {
	Index core.Index
	epoch uint64
}

// Epoch returns the epoch number at which this version was last
// published (0 for the initial version).
func (v *Version) Epoch() uint64 { return v.epoch }
