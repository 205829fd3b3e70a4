package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/collection"
	"repro/internal/geom"
	"repro/internal/wal"
	"repro/internal/workload"
)

// WAL benchmarks the cost of the flush-commit journal PR 8 added: the
// same full-move window workload as the churn experiment (every object
// hops between two position sets, so each flush is a maximal netted
// window) committed under each durability configuration:
//
//	off     — no WAL: the pre-PR-8 Collection, the zero-cost baseline
//	never   — journal every window, leave syncing to the kernel
//	100ms   — journal every window, fsync on a 100ms timer
//	always  — fsync inside every flush: acknowledged == on disk
//
// win-us is the mean wall time of one committed window (Flush, which
// under a WAL includes encode + write + policy fsync) — the durability
// tax per window. log-KB/win is the journal bytes appended per window.
// recover-ms is the time a fresh Open takes to reload the final state
// (snapshot-free worst case: pure log replay). The off row's WAL
// columns are zero by construction.
func WAL(cfg Config) {
	cfg = cfg.withDefaults()
	defer setThreads(cfg.Threads)()
	n := cfg.N
	side := workload.Uniform.Side(2)
	ptsA := workload.GenUniform(n, 2, side, cfg.Seed)
	ptsB := workload.GenUniform(n, 2, side, cfg.Seed+777)
	windows := 4 * cfg.Reps
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%07d", i)
	}

	fmt.Fprintf(cfg.Out, "WAL — flush-commit overhead per fsync policy, n=%d objects, %d full-move windows\n", n, windows)
	fmt.Fprintf(cfg.Out, "(Collection[string] over SPaC-H journaling to a temp dir; docs/durability.md has the per-policy guarantee)\n")

	tb := newTable("wal: flush-commit cost vs durability policy",
		"win-us", "mut-kops/s", "log-KB/win", "recover-ms").
		setUnits("us", "kops/s", "KB", "ms")
	for _, row := range []struct {
		name   string
		policy wal.FsyncPolicy
		on     bool
	}{
		{"off", 0, false},
		{"never", wal.FsyncNever, true},
		{"100ms", wal.FsyncInterval, true},
		{"always", wal.FsyncAlways, true},
	} {
		winUs, mutKops, kbPerWin, recoverMs := runWAL(row.on, row.policy, side, ids, ptsA, ptsB, windows)
		tb.add(row.name, winUs, mutKops, kbPerWin, recoverMs)
	}
	tb.write(cfg.Out)
}

// runWAL commits the window loop under one policy and returns the mean
// per-window Flush wall time (µs), total mutation throughput (kops/s),
// journal bytes per window (KB), and the cold-recovery replay time (ms).
func runWAL(on bool, policy wal.FsyncPolicy, side int64, ids []string, ptsA, ptsB []geom.Point, windows int) (winUs, mutKops, kbPerWin, recoverMs float64) {
	c := collection.New[string](mkIndex("SPaC-H", 2, side), collection.Options{MaxBatch: len(ids) + 1})
	var dir string
	if on {
		var err error
		dir, err = os.MkdirTemp("", "psibench-wal-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		l, _, err := wal.Open[string](dir, wal.StringCodec{}, wal.Options{Fsync: policy, Interval: 100 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		defer l.Close()
		c.SetJournal(func(seq uint64, ops []wal.Op[string]) error {
			_, err := l.AppendWindowAt(seq, ops)
			return err
		})
		defer func() {
			// Cold recovery: close the generation and time a fresh Open
			// replaying the whole log (no snapshot was ever taken).
			c.Close()
			if err := l.Close(); err != nil {
				panic(err)
			}
			st := l.Stats()
			kbPerWin = float64(st.AppendedBytes) / float64(st.Appends) / 1024
			t0 := time.Now()
			l2, rec, err := wal.Open[string](dir, wal.StringCodec{}, wal.Options{Fsync: wal.FsyncNever})
			if err != nil {
				panic(err)
			}
			recoverMs = float64(time.Since(t0).Microseconds()) / 1e3
			if len(rec.Entries) != len(ids) {
				panic(fmt.Sprintf("wal bench: recovered %d objects, want %d", len(rec.Entries), len(ids)))
			}
			l2.Close()
		}()
	}
	defer c.Close()

	// Preload at A and commit (journaled like any window when on).
	for i, id := range ids {
		c.Set(id, ptsA[i])
	}
	c.Flush()

	var flushTotal time.Duration
	begin := time.Now()
	cur, next := ptsA, ptsB
	for w := 0; w < windows; w++ {
		for i, id := range ids {
			c.Set(id, next[i])
		}
		t0 := time.Now()
		c.Flush()
		flushTotal += time.Since(t0)
		cur, next = next, cur
	}
	elapsed := time.Since(begin)
	winUs = float64(flushTotal.Microseconds()) / float64(windows)
	mutKops = float64(windows*len(ids)) / elapsed.Seconds() / 1e3
	return winUs, mutKops, kbPerWin, recoverMs
}
