// Command psiload benchmarks a running psid server: it opens N
// concurrent client connections, drives a SET/NEARBY/WITHIN mover/query
// mix through them (each connection owns a disjoint slice of the object
// IDs and hops them around, like the in-process fleet benchmark), and
// reports client-observed throughput and p50/p99 latency per command —
// to stdout and, with -csv, as machine-readable rows that join the
// psibench measurement logs.
//
//	psid -addr :7501 &
//	psiload -addr 127.0.0.1:7501 -conns 16 -dur 10s -csv load.csv
//
// With -scrape pointed at the server's /metrics endpoint, psiload also
// scrapes before and after the run and appends the server-side deltas
// (flush windows, coalescing ratio, per-shard op spread) to the report
// and the CSV — pairing what clients observed with what the server did.
//
// psiload exits non-zero on transport failures or when any request
// returned a protocol error, so it doubles as a CI smoke check.
//
// The -final / -verify pair is the durability oracle for psid -wal:
// -final FILE records every object's last acknowledged position to FILE
// after the run; -verify FILE (instead of a run) GETs each recorded
// object and exits non-zero if any acknowledged write is missing or
// moved. Kill -9 the server between the two and the pair proves the WAL
// holds (docs/durability.md; the CI crash smoke is exactly this
// sequence).
//
// -mix failover is the failover chaos harness: psiload spawns its own
// psid cluster (-psid gives the binary; a leader plus hot standbys),
// churns writes and reads against it, and performs -handovers violent
// handovers — kill -9 the leader mid-churn, PROMOTE the next standby
// in place, FOLLOW-re-point the survivors, restart the victim as a
// standby of the new timeline. It reports the write- and
// read-unavailability windows (first error to first success, p50/p99
// across the handovers) and exits non-zero unless every acknowledged
// write survives on the final leader at the expected term
// (docs/replication.md, "Failover"):
//
//	go build -o /tmp/psid ./cmd/psid
//	psiload -mix failover -psid /tmp/psid -handovers 5 -csv failover.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"psiload — load generator for psid (protocol reference: docs/protocol.md)\n\nUsage: psiload [flags]\n\n")
		flag.PrintDefaults()
	}
	addr := flag.String("addr", "127.0.0.1:7501", "psid command address")
	conns := flag.Int("conns", 8, "concurrent client connections")
	objects := flag.Int("objects", 10_000, "tracked object ID space, split across connections")
	dur := flag.Duration("dur", 5*time.Second, "run duration (ignored when -ops > 0)")
	ops := flag.Int("ops", 0, "stop after this many total requests instead of -dur")
	dims := flag.Int("dims", 2, "point dimensionality (must match the server)")
	side := flag.Int64("side", 1_000_000_000, "coordinate universe [0, side]^dims")
	setFrac := flag.Float64("set", 0.6, "fraction of requests that are SET moves")
	nearbyFrac := flag.Float64("nearby", 0.3, "fraction that are NEARBY (the rest are WITHIN)")
	hop := flag.Float64("hop", 0.01, "SET move distance as a fraction of side")
	boxFrac := flag.Float64("box", 0.005, "WITHIN box half-extent as a fraction of side")
	k := flag.Int("k", 10, "NEARBY k")
	seed := flag.Int64("seed", 42, "workload seed")
	csvPath := flag.String("csv", "", "also write the per-op report to this CSV file")
	scrape := flag.String("scrape", "", "psid /metrics URL (e.g. http://127.0.0.1:7502/metrics); scraped before and after the run to report server-side deltas (flushes, netting ratio, per-shard op spread)")
	mix := flag.String("mix", "", "workload preset: 'churn' = flush-heavy mover mix (90% SET, long hops) that keeps the server's index under continuous batch churn (explicitly set flags override preset values); 'failover' = self-contained failover chaos run (needs -psid; ignores -addr, spawns its own cluster, -dur is the churn time per handover)")
	psidBin := flag.String("psid", "", "path to the psid binary the failover mix spawns (required for -mix failover)")
	handovers := flag.Int("handovers", 5, "failover mix: number of kill-and-promote rounds")
	nodes := flag.Int("nodes", 3, "failover mix: cluster size (leader + standbys)")
	followers := flag.String("followers", "", "comma-separated follower addresses (psid -replica-of): NEARBY/WITHIN queries round-robin across them while SETs stay on -addr (the leader) — the replicated read-scaling mix")
	finalPath := flag.String("final", "", "after the run, write every object's last acknowledged position to this JSON file (the durability oracle's write side)")
	verifyPath := flag.String("verify", "", "skip the load run; GET every object recorded in this JSON file (written by -final) and exit non-zero on any lost or moved acknowledged write")
	flag.Parse()

	if *verifyPath != "" {
		raw, err := os.ReadFile(*verifyPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
			os.Exit(1)
		}
		var final map[string][]int64
		if err := json.Unmarshal(raw, &final); err != nil {
			fmt.Fprintf(os.Stderr, "psiload: parsing %s: %v\n", *verifyPath, err)
			os.Exit(1)
		}
		if err := loadgen.VerifyFinal(*addr, final); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Printf("psiload: verified %d acknowledged writes against %s\n", len(final), *addr)
		return
	}

	if *mix != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		switch *mix {
		case "failover":
			// Each handover needs its own churn slice; the default -dur
			// (5s) is a run length, not a round length, so the failover
			// mix defaults to 1s rounds unless -dur was set explicitly.
			roundDur := time.Duration(0)
			if set["dur"] {
				roundDur = *dur
			}
			os.Exit(failoverMix(*psidBin, *nodes, *handovers, roundDur, *csvPath))
		case "churn":
			if !set["set"] {
				*setFrac = 0.9
			}
			if !set["nearby"] {
				*nearbyFrac = 0.05
			}
			if !set["hop"] {
				*hop = 0.25
			}
		default:
			fmt.Fprintf(os.Stderr, "psiload: unknown -mix %q (supported: churn)\n", *mix)
			os.Exit(2)
		}
	}

	var before map[string]float64
	if *scrape != "" {
		var err error
		before, err = loadgen.ScrapeMetrics(*scrape)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psiload: scraping %s: %v\n", *scrape, err)
			os.Exit(1)
		}
	}

	rep, err := loadgen.RunLoad(loadgen.LoadOptions{
		Addr:       *addr,
		Conns:      *conns,
		Objects:    *objects,
		Dims:       *dims,
		Side:       *side,
		Duration:   *dur,
		TotalOps:   *ops,
		SetFrac:    *setFrac,
		NearbyFrac: *nearbyFrac,
		HopFrac:    *hop,
		BoxFrac:    *boxFrac,
		K:          *k,
		Seed:       *seed,
		TrackFinal: *finalPath != "",
		Followers:  splitAddrs(*followers),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
		os.Exit(1)
	}
	if *scrape != "" {
		after, err := loadgen.ScrapeMetrics(*scrape)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psiload: scraping %s: %v\n", *scrape, err)
			os.Exit(1)
		}
		rep.Server = loadgen.MetricsDelta(before, after)
	}
	rep.Format(os.Stdout)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "psiload: writing CSV: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "psiload: closing CSV: %v\n", err)
			os.Exit(1)
		}
	}
	if *finalPath != "" {
		b, err := json.Marshal(rep.Final)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psiload: encoding final state: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*finalPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("psiload: recorded %d final positions to %s\n", len(rep.Final), *finalPath)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "psiload: %d requests returned errors\n", rep.Errors)
		os.Exit(1)
	}
}

// failoverMix runs the self-contained failover chaos harness and
// returns the process exit code. The orchestration narrates to stderr;
// the report goes to stdout (and csvPath, when set).
func failoverMix(psidBin string, nodes, handovers int, roundDur time.Duration, csvPath string) int {
	if psidBin == "" {
		fmt.Fprintln(os.Stderr, "psiload: -mix failover needs -psid (path to the psid binary)")
		return 2
	}
	base, err := os.MkdirTemp("", "psiload-failover-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
		return 1
	}
	defer os.RemoveAll(base)
	rep, err := loadgen.RunFailover(loadgen.FailoverOptions{
		PsidBin:   psidBin,
		BaseDir:   base,
		Nodes:     nodes,
		Handovers: handovers,
		RoundDur:  roundDur,
		ServerOut: os.Stderr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "psiload: "+format+"\n", args...)
		},
	})
	if rep != nil {
		rep.Format(os.Stdout)
		if csvPath != "" {
			f, cerr := os.Create(csvPath)
			if cerr == nil {
				cerr = rep.WriteCSV(f)
				if closeErr := f.Close(); cerr == nil {
					cerr = closeErr
				}
			}
			if cerr != nil {
				fmt.Fprintf(os.Stderr, "psiload: writing CSV: %v\n", cerr)
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "psiload: %v\n", err)
		return 1
	}
	return 0
}

// splitAddrs parses the -followers list, tolerating empty segments and
// surrounding whitespace.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
