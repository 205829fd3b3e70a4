package window

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// The pipeline lifecycle — flush triggers, the flusher, exactly-once
// application, the Close ordering — is tested here, once, against a
// client with a trivial op type. The Collection tests what it adds on
// top: its netting semantics, oracles and allocation guards.

// tally is the trivial client: ops are ints, netting drops negative ones,
// apply records every surviving op. Its fields are only touched under the
// engine's flush lock, except through the atomics.
type tally struct {
	eng     Engine[int]
	window  []int       // the netted window between Net and Apply
	applied map[int]int // op -> times applied
	windows [][]int     // every applied window, in order
	total   atomic.Int64
	closed  atomic.Bool // set once a Close has returned
	late    atomic.Bool // an Apply ran after that
}

func newTally(opts Options) *tally {
	c := &tally{applied: make(map[int]int)}
	net := func(ops []int) (cancelled int) {
		c.window = c.window[:0]
		for _, o := range ops {
			if o < 0 {
				cancelled++
				continue
			}
			c.window = append(c.window, o)
		}
		return cancelled
	}
	apply := func(sp *obs.FlushSpan, clk time.Time) int {
		if c.closed.Load() {
			c.late.Store(true)
		}
		// A client may guard state of its own with the pending lock from
		// inside a flush (Collection purges its overlay this way): a
		// section without an Append must never flush, however full the
		// log has grown meanwhile — here it would self-deadlock.
		c.eng.Lock()
		c.eng.Unlock()
		for _, o := range c.window {
			c.applied[o]++
		}
		c.windows = append(c.windows, append([]int(nil), c.window...))
		c.total.Add(int64(len(c.window)))
		sp.Stamp(obs.StageApply, clk)
		return len(c.window)
	}
	c.eng.Init("tally", opts, net, apply)
	return c
}

// enqueue is a client's whole enqueue path: the MaxBatch flush is the
// engine's, inside Unlock.
func (c *tally) enqueue(op int) {
	c.eng.Lock()
	c.eng.Append(op)
	c.eng.Unlock()
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestMaxBatchTriggersFlush(t *testing.T) {
	c := newTally(Options{MaxBatch: 8})
	defer c.eng.Close()
	for i := 0; i < 7; i++ {
		c.enqueue(i)
	}
	if st := c.eng.Stats(); st.Flushes != 0 || st.Pending != 7 {
		t.Fatalf("below the trigger: %+v, want no flush and 7 pending", st)
	}
	c.enqueue(7)
	if st := c.eng.Stats(); st.Flushes != 1 || st.Pending != 0 || c.total.Load() != 8 {
		t.Fatalf("after filling one batch: %+v, %d applied", st, c.total.Load())
	}
	// A multi-op section flushes once, when it ends, with every op in.
	c.eng.Lock()
	for i := 0; i < 20; i++ {
		c.eng.Append(50 + i)
	}
	c.eng.Unlock()
	if st := c.eng.Stats(); st.Flushes != 2 || st.Pending != 0 || c.total.Load() != 28 {
		t.Fatalf("after a 20-op section: %+v, %d applied", st, c.total.Load())
	}
	// Only an Append triggers: a section without one leaves the log alone.
	c.enqueue(8)
	c.eng.Lock()
	c.eng.Unlock()
	if st := c.eng.Stats(); st.Flushes != 2 || st.Pending != 1 {
		t.Fatalf("bare Lock/Unlock: %+v, want no flush", st)
	}
	// An unset MaxBatch is the default trigger.
	d := newTally(Options{})
	defer d.eng.Close()
	for i := 0; i < DefaultMaxBatch-1; i++ {
		d.enqueue(i)
	}
	if st := d.eng.Stats(); st.Flushes != 0 || st.Pending != DefaultMaxBatch-1 {
		t.Fatalf("one below the default trigger: %+v", st)
	}
	d.enqueue(DefaultMaxBatch)
	if st := d.eng.Stats(); st.Flushes != 1 || st.Pending != 0 {
		t.Fatalf("at the default trigger: %+v", st)
	}
}

func TestWindowOrderNettingAndCounters(t *testing.T) {
	reg := obs.New()
	c := newTally(Options{MaxBatch: 1 << 20, Obs: reg})
	defer c.eng.Close()
	if c.eng.Flush() != 0 || c.eng.Stats().Flushes != 0 {
		t.Fatal("flushing an empty log must be a no-op, not a window")
	}
	for _, o := range []int{3, -1, 1, -1, 2} {
		c.enqueue(o)
	}
	if got := c.eng.Flush(); got != 3 {
		t.Fatalf("Flush applied %d, want the 3 surviving ops", got)
	}
	if w := c.windows[0]; len(w) != 3 || w[0] != 3 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("window = %v, want enqueue order [3 1 2]", w)
	}
	if st := c.eng.Stats(); st.Flushes != 1 || st.Cancelled != 2 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	spans := reg.FlushTrace().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans recorded, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Layer != "tally" || sp.RawOps != 5 || sp.NettedOps != 3 || sp.Cancelled != 2 || sp.Start == 0 {
		t.Fatalf("span = %+v", sp)
	}
}

func TestBackgroundFlusher(t *testing.T) {
	c := newTally(Options{MaxBatch: 1 << 20, FlushInterval: time.Millisecond})
	defer c.eng.Close()
	c.enqueue(1)
	waitFor(t, "the background flusher to apply the pending op", func() bool { return c.total.Load() == 1 })
}

// TestFlushExactlyOnce races enqueues, explicit flushes and threshold
// flushes: every enqueued op must be applied by exactly one window.
func TestFlushExactlyOnce(t *testing.T) {
	const (
		writers = 8
		perG    = 400
	)
	c := newTally(Options{MaxBatch: 64})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.enqueue(w*perG + i)
				if i%97 == 0 {
					c.eng.Flush()
				}
			}
		}()
	}
	wg.Wait()
	c.eng.Close()
	if len(c.applied) != writers*perG {
		t.Fatalf("%d distinct ops applied, want %d", len(c.applied), writers*perG)
	}
	for op, n := range c.applied {
		if n != 1 {
			t.Fatalf("op %d applied %d times", op, n)
		}
	}
	// Each writer's ops appear in its program order across the windows.
	last := make([]int, writers)
	for i := range last {
		last[i] = -1
	}
	for _, w := range c.windows {
		for _, op := range w {
			if g := op / perG; op <= last[g] {
				t.Fatalf("writer %d: op %d applied after %d", g, op, last[g])
			} else {
				last[g] = op
			}
		}
	}
	if st := c.eng.Stats(); st.Pending != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestCloseFlushRace hammers concurrent Close calls against live enqueue
// traffic and a fast background flusher, asserting the Close contract: no
// call returns before the ticker goroutine has fully stopped and the final
// flush has run, so no window — ticker tick, concurrent Close — applies
// after any Close returned. Run under -race this also checks the shutdown
// sequencing itself.
func TestCloseFlushRace(t *testing.T) {
	for range 20 {
		// Unreachable MaxBatch: only the ticker and Close itself may
		// flush, so writers can legally keep enqueueing across the Close.
		c := newTally(Options{MaxBatch: 1 << 30, FlushInterval: 50 * time.Microsecond})

		stopWriters := make(chan struct{})
		var writers sync.WaitGroup
		for w := range 4 {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; ; i++ {
					select {
					case <-stopWriters:
						return
					default:
					}
					c.enqueue(w*1_000_000 + i)
					// Yield: unthrottled writers outrun the flusher's
					// apply and every window grows with the last one.
					runtime.Gosched()
				}
			}()
		}
		time.Sleep(200 * time.Microsecond)
		var closers sync.WaitGroup
		for range 3 {
			closers.Add(1)
			go func() {
				defer closers.Done()
				c.eng.Close()
				c.closed.Store(true)
			}()
		}
		closers.Wait()
		close(stopWriters)
		writers.Wait()
		c.eng.Close() // idempotent after the concurrent trio
		c.enqueue(-1)
		time.Sleep(500 * time.Microsecond) // a flusher that survived Close would tick here

		if c.late.Load() {
			t.Fatal("a window was applied after a Close returned")
		}
	}
}

// TestApplyEntersAtTheSeam pins the second way into the pipeline: a
// window that arrives already netted is applied under the flush lock
// with a Flush's accounting — one flush, raw ops, none cancelled, one
// span — and the pending log is neither netted nor flushed by it.
func TestApplyEntersAtTheSeam(t *testing.T) {
	reg := obs.New()
	c := newTally(Options{MaxBatch: 1 << 20, Obs: reg})
	defer c.eng.Close()
	c.enqueue(7) // stays pending throughout
	locked := false
	n := c.eng.Apply(3, func(sp *obs.FlushSpan, clk time.Time) int {
		if locked = !c.eng.flushMu.TryLock(); !locked {
			c.eng.flushMu.Unlock()
		}
		sp.Stamp(obs.StageApply, clk)
		return 3
	})
	if n != 3 || !locked {
		t.Fatalf("Apply returned %d, flush lock held: %t; want 3 applied under the lock", n, locked)
	}
	if st := c.eng.Stats(); st.Flushes != 1 || st.Cancelled != 0 || st.Pending != 1 || c.total.Load() != 0 {
		t.Fatalf("after Apply: %+v, %d tape ops applied; want one window and the tape untouched", st, c.total.Load())
	}
	spans := reg.FlushTrace().Snapshot()
	if len(spans) != 1 || spans[0].Layer != "tally" || spans[0].RawOps != 3 || spans[0].NettedOps != 3 || spans[0].Cancelled != 0 {
		t.Fatalf("spans = %+v, want one tally span of 3 raw, 3 netted ops", spans)
	}
	if c.eng.Flush() != 1 || c.eng.Stats().Flushes != 2 {
		t.Fatal("the pending op did not flush as its own window afterwards")
	}
}

// TestCloseEndsIntervalFlushing: the flusher runs from Init to Close and
// no longer; the engine itself stays usable.
func TestCloseEndsIntervalFlushing(t *testing.T) {
	c := newTally(Options{MaxBatch: 1 << 20, FlushInterval: 100 * time.Microsecond})
	c.enqueue(1)
	waitFor(t, "the flusher", func() bool { return c.total.Load() == 1 })
	c.enqueue(2)
	c.eng.Close() // final flush
	if c.total.Load() != 2 {
		t.Fatalf("Close left %d applied, want 2", c.total.Load())
	}
	c.enqueue(3)
	time.Sleep(2 * time.Millisecond) // twenty periods of the stopped flusher
	if c.eng.Pending() != 1 {
		t.Fatal("the flusher outlived Close and flushed")
	}
	if c.eng.Flush() != 1 {
		t.Fatal("explicit Flush after Close did not apply the pending op")
	}
}

func TestExclusiveAndDiscard(t *testing.T) {
	c := newTally(Options{MaxBatch: 1 << 20})
	defer c.eng.Close()
	c.enqueue(1)
	flushed := make(chan int)
	c.eng.Exclusive(func() {
		go func() { flushed <- c.eng.Flush() }()
		select {
		case <-flushed:
			t.Error("a flush ran inside an Exclusive section")
		case <-time.After(2 * time.Millisecond):
		}
		c.eng.Lock()
		c.eng.Discard()
		c.eng.Unlock()
	})
	if n := <-flushed; n != 0 || c.total.Load() != 0 {
		t.Fatalf("discarded op was applied (flush returned %d)", n)
	}
}

// TestFlushZeroAllocWarm is the engine's allocation guard: a warm
// enqueue/flush cycle — log swap, hand-back, span recording with a live
// registry — allocates nothing of its own.
func TestFlushZeroAllocWarm(t *testing.T) {
	var sink int
	var e Engine[int]
	e.Init("guard", Options{MaxBatch: 1 << 20, Obs: obs.New()},
		func(ops []int) int { sink = len(ops); return 0 },
		func(sp *obs.FlushSpan, clk time.Time) int { sp.Stamp(obs.StageApply, clk); return sink })
	defer e.Close()
	window := func() {
		e.Lock()
		for i := 0; i < 512; i++ {
			e.Append(i)
		}
		e.Unlock()
		e.Flush()
	}
	window()
	window() // both halves of the double-buffered log are grown
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm engine flush allocates %.2f/op, want 0", allocs)
	}
}

// TestDefaultMaxBatchMatchesGrain pins the documented linkage: the
// DefaultMaxBatch doc promises it matches parallel.DefaultGrain (the
// size below which the indexes' batch operations stop forking), so a
// change to either constant must revisit the other.
func TestDefaultMaxBatchMatchesGrain(t *testing.T) {
	if DefaultMaxBatch != parallel.DefaultGrain {
		t.Fatalf("DefaultMaxBatch (%d) no longer matches parallel.DefaultGrain (%d); update the constant or its comment",
			DefaultMaxBatch, parallel.DefaultGrain)
	}
}
