package collection

import (
	"iter"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wal"
)

// The flush pipeline's lifecycle — the MaxBatch trigger, the background
// flusher, exactly-once application, the Close order, the sections that
// hold flushes off, and what each window counts and traces. The trigger's
// visibility contract is TestMaxBatchMakesWindowVisible's; the netting
// allocation guards are TestSetFlushZeroAllocWarm's and its neighbours'.

// TestMaxBatchTriggersFlush: the trigger counts raw ops, not netted ones,
// starts again from zero after each window, and fires only on an enqueue —
// reads that take the pending lock never flush. (The default trigger is
// TestMaxBatchMakesWindowVisible's.)
func TestMaxBatchTriggersFlush(t *testing.T) {
	c := New(core.NewBruteForce(2), Options{MaxBatch: 8})
	defer c.Close()
	for i := 0; i < 7; i++ {
		c.Set("1", geom.Pt2(int64(i), 1))
	}
	c.Get("1")
	c.WithinIDs(universe())
	if st := c.Stats(); st.Flushes != 0 || st.Pending != 7 || c.Pending() != 7 {
		t.Fatalf("below the trigger: %+v, want no flush and 7 pending", st)
	}
	c.Set("1", geom.Pt2(7, 1))
	if st := c.Stats(); st.Flushes != 1 || st.Pending != 0 || st.Cancelled != 7 || st.Objects != 1 {
		t.Fatalf("after 8 ops on one ID: %+v, want one window netted to one insert", st)
	}
	for i := 0; i < 7; i++ {
		c.Set(key(10+i), geom.Pt2(int64(i), 2))
	}
	if st := c.Stats(); st.Flushes != 1 || st.Pending != 7 {
		t.Fatalf("7 ops into the second window: %+v, want no flush", st)
	}
	c.Remove("1")
	if st := c.Stats(); st.Flushes != 2 || st.Pending != 0 || st.Objects != 7 {
		t.Fatalf("after the filling Remove: %+v, want the second window applied", st)
	}
}

// TestMaxBatchFlushZeroAllocWarm: a warm window flushed by the Set that
// fills it — tape swap, hand-back, span recording with a live registry —
// allocates nothing.
func TestMaxBatchFlushZeroAllocWarm(t *testing.T) {
	const n = 512
	reg := obs.New()
	c := New(core.NewNull(2), Options{MaxBatch: n, Obs: reg})
	defer c.Close()
	ids := keys(n)
	x := int64(0)
	window := func() {
		x++
		for i := 0; i < n; i++ {
			c.Set(ids[i], geom.Pt2(x, int64(i)))
		}
	}
	window()
	window() // both halves of the double-buffered tape are grown
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("warm MaxBatch-triggered window allocates %.2f/op, want 0", allocs)
	}
	if st := c.Stats(); st.Flushes != 53 || st.Pending != 0 {
		t.Fatalf("stats: %+v, want 53 windows, each flushed by its filling Set", st)
	}
	if len(reg.FlushTrace().Snapshot()) == 0 {
		t.Fatal("no flush span recorded")
	}
}

// TestLoadAndCheckpointExcludeFlushes: Load and Checkpoint hold the flush
// lock for their whole run, so a Flush called meanwhile waits for them.
// Load discards what was pending, and the waiting Flush finds nothing;
// Checkpoint leaves it pending, for the waiting Flush to apply.
func TestLoadAndCheckpointExcludeFlushes(t *testing.T) {
	// heldOff starts a Flush from inside the section and reports whether it
	// returned before the section did.
	heldOff := func(c *Collection) (early bool, result chan int) {
		result = make(chan int, 1)
		go func() { result <- c.Flush() }()
		select {
		case n := <-result:
			result <- n
			return true, result
		case <-time.After(2 * time.Millisecond):
			return false, result
		}
	}

	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20})
	defer c.Close()
	c.Set("1", geom.Pt2(1, 1))
	var early bool
	var result chan int
	c.Load(1, func(yield func(string, geom.Point) bool) {
		early, result = heldOff(c)
		yield("2", geom.Pt2(2, 2))
	})
	if early {
		t.Fatal("a flush ran inside Load")
	}
	if n := <-result; n != 0 {
		t.Fatalf("the flush after Load applied %d mutations; the discarded op was applied", n)
	}
	if got := c.WithinIDs(universe()); len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("after Load: %v, want only the loaded object", got)
	}

	c.Set("3", geom.Pt2(3, 3))
	seen := -1
	c.Checkpoint(func(objects int, _ iter.Seq2[string, geom.Point]) {
		seen = objects
		early, result = heldOff(c)
	})
	if early {
		t.Fatal("a flush ran inside Checkpoint")
	}
	if n := <-result; n != 1 || seen != 1 {
		t.Fatalf("checkpoint saw %d objects and the flush after it applied %d; want 1 and the pending op", seen, n)
	}
}

func TestBackgroundFlusher(t *testing.T) {
	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20, FlushInterval: time.Millisecond})
	defer c.Close()
	c.Set("1", geom.Pt2(1, 1))
	waitFor(t, "the background flusher to apply the pending op", func() bool {
		return len(c.WithinIDs(universe())) == 1
	})
}

// TestFlushExactlyOnce races enqueues, explicit flushes and MaxBatch
// flushes: every enqueued op must reach exactly one window, and each
// writer's ops must reach the windows in its program order.
func TestFlushExactlyOnce(t *testing.T) {
	const (
		writers = 8
		perG    = 400
	)
	c := New(core.NewNull(2), Options{MaxBatch: 64})
	var journaled []int // every window's IDs, in window order; guarded by the flush lock
	c.SetJournal(func(_ uint64, ops []wal.Op) error {
		for _, o := range ops {
			id, _ := strconv.Atoi(o.ID)
			journaled = append(journaled, id)
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Set(key(w*perG+i), geom.Pt2(int64(i), int64(w)))
				if i%97 == 0 {
					c.Flush()
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	if len(journaled) != writers*perG {
		t.Fatalf("%d ops reached a window, want %d", len(journaled), writers*perG)
	}
	last := make([]int, writers)
	for i := range last {
		last[i] = -1
	}
	for _, id := range journaled {
		if g := id / perG; id <= last[g] {
			t.Fatalf("writer %d: op %d reached a window after %d", g, id, last[g])
		} else {
			last[g] = id
		}
	}
	if st := c.Stats(); st.Pending != 0 || st.Inserted != writers*perG {
		t.Fatalf("stats after close: %+v", st)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFlushRace hammers concurrent Close calls against live enqueue
// traffic and a fast background flusher, asserting the Close contract: no
// call returns before the ticker goroutine has fully stopped and the final
// flush has run, so no window — ticker tick, concurrent Close — is
// committed after any Close returned. Run under -race this also checks the
// shutdown sequencing itself.
func TestCloseFlushRace(t *testing.T) {
	for range 20 {
		// Unreachable MaxBatch: only the ticker and Close itself may
		// flush, so writers can legally keep enqueueing across the Close.
		c := New(core.NewNull(2), Options{MaxBatch: 1 << 30, FlushInterval: 50 * time.Microsecond})
		var closed, late atomic.Bool // a Close has returned; a window committed after that
		c.SetJournal(func(uint64, []wal.Op) error {
			if closed.Load() {
				late.Store(true)
			}
			return nil
		})

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
					c.Set(key(w*1_000_000+i), geom.Pt2(int64(i), int64(w)))
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
				c.Close()
				closed.Store(true)
			}()
		}
		closers.Wait()
		close(stopWriters)
		writers.Wait()
		c.Close() // idempotent after the concurrent trio
		c.Set("-1", geom.Pt2(0, 0))
		time.Sleep(500 * time.Microsecond) // a flusher that survived Close would tick here

		if late.Load() {
			t.Fatal("a window was committed after a Close returned")
		}
	}
}

// TestCloseEndsIntervalFlushing: the flusher runs from New to Close and no
// longer; the Collection itself stays usable.
func TestCloseEndsIntervalFlushing(t *testing.T) {
	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20, FlushInterval: 100 * time.Microsecond})
	c.Set("1", geom.Pt2(1, 1))
	waitFor(t, "the flusher", func() bool { return c.Stats().Flushes == 1 })
	c.Set("2", geom.Pt2(2, 2))
	c.Close() // final flush
	if st := c.Stats(); st.Flushes != 2 || st.Pending != 0 || st.Objects != 2 {
		t.Fatalf("after Close: %+v, want the final flush to have applied the pending op", st)
	}
	c.Set("3", geom.Pt2(3, 3))
	time.Sleep(2 * time.Millisecond) // twenty periods of the stopped flusher
	if c.Pending() != 1 {
		t.Fatal("the flusher outlived Close and flushed")
	}
	if c.Flush() != 1 {
		t.Fatal("explicit Flush after Close did not apply the pending op")
	}
}

// TestTapeFlushSpanAndCounters: a flush of the tape nets it into one
// window in first-appearance order, counts one flush and its cancelled
// ops, and records one span of layer "collection" with the window's raw,
// netted and cancelled counts. An empty tape is no window at all.
func TestTapeFlushSpanAndCounters(t *testing.T) {
	reg := obs.New()
	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20, Obs: reg})
	defer c.Close()
	var window []string
	c.SetJournal(func(_ uint64, ops []wal.Op) error {
		for _, o := range ops {
			window = append(window, strings.Clone(o.ID)) // a view, valid only during the call
		}
		return nil
	})
	if c.Flush() != 0 || c.Stats().Flushes != 0 || len(reg.FlushTrace().Snapshot()) != 0 {
		t.Fatal("flushing an empty tape must be a no-op, not a window")
	}
	for i, id := range []int{3, 1, 3, 2, 1} {
		c.Set(key(id), geom.Pt2(int64(i), int64(id)))
	}
	if got := c.Flush(); got != 3 {
		t.Fatalf("Flush applied %d, want the 3 surviving ops", got)
	}
	if !slices.Equal(window, []string{"3", "1", "2"}) {
		t.Fatalf("window = %v, want first-appearance order [3 1 2]", window)
	}
	if st := c.Stats(); st.Flushes != 1 || st.Cancelled != 2 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
	spans := reg.FlushTrace().Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans recorded, want 1", len(spans))
	}
	if sp := spans[0]; sp.Layer != "collection" || sp.RawOps != 5 || sp.NettedOps != 3 || sp.Cancelled != 2 || sp.Start == 0 {
		t.Fatalf("span = %+v", sp)
	}
}

// TestCommitWindowSpanAndCounters: a window that arrives already netted is
// committed under the flush lock with a tape flush's accounting — one
// flush, its raw ops, none cancelled, one span — and the pending tape is
// neither netted nor flushed by it.
func TestCommitWindowSpanAndCounters(t *testing.T) {
	reg := obs.New()
	c := New(core.NewBruteForce(2), Options{MaxBatch: 1 << 20, Obs: reg})
	defer c.Close()
	c.Set("7", geom.Pt2(7, 7)) // stays pending throughout
	locked := false
	c.SetJournal(func(uint64, []wal.Op) error {
		if locked = !c.flushMu.TryLock(); !locked {
			c.flushMu.Unlock()
		}
		return nil
	})
	win := []wal.Op{{ID: "1", P: geom.Pt2(1, 1)}, {ID: "2", P: geom.Pt2(2, 2)}, {ID: "3", P: geom.Pt2(3, 3)}}
	if err := c.CommitWindow(1, win); err != nil || !locked {
		t.Fatalf("CommitWindow: %v, flush lock held: %t; want the window committed under the lock", err, locked)
	}
	if st := c.Stats(); st.Flushes != 1 || st.Cancelled != 0 || st.Pending != 1 || st.Inserted != 3 {
		t.Fatalf("after CommitWindow: %+v; want one window and the tape untouched", st)
	}
	spans := reg.FlushTrace().Snapshot()
	if len(spans) != 1 || spans[0].Layer != "collection" || spans[0].RawOps != 3 || spans[0].NettedOps != 3 || spans[0].Cancelled != 0 {
		t.Fatalf("spans = %+v, want one collection span of 3 raw, 3 netted ops", spans)
	}
	if c.Flush() != 1 || c.Stats().Flushes != 2 {
		t.Fatal("the pending op did not flush as its own window afterwards")
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
