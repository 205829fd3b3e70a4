// Command psiload is the failover-handover harness for psid: it spawns
// its own cluster (-psid gives the binary; a leader plus hot standbys,
// -nodes in all), churns writes and reads against it, and performs
// -handovers violent handovers — kill -9 the leader mid-churn, PROMOTE
// the next standby in place, FOLLOW-re-point the survivors, restart the
// victim as a standby of the new timeline. It reports the write- and
// read-unavailability windows (first error to first success, p50/p99
// across the handovers) and exits non-zero unless every acknowledged
// write survives on the final leader at the expected term
// (docs/replication.md, "Failover"):
//
//	go build -o /tmp/psid ./cmd/psid
//	psiload -psid /tmp/psid -handovers 5 -csv failover.csv
//
// It is not a load generator: throughput and latency numbers come from
// go run ./benchmark -workload track-*, and the kill -9 recovery,
// follower convergence, partition and single-promotion oracles are the
// real-process tests of cmd/psid (go test ./cmd/psid/).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/loadgen"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"psiload — failover-handover harness for psid (contract: docs/replication.md)\n\nUsage: psiload -psid PATH [flags]\n\n")
		flag.PrintDefaults()
	}
	psidBin := flag.String("psid", "", "path to the psid binary the harness spawns (required)")
	nodes := flag.Int("nodes", 3, "cluster size (leader + standbys)")
	handovers := flag.Int("handovers", 5, "number of kill-and-promote rounds")
	dur := flag.Duration("dur", time.Second, "churn time before each handover and after the last")
	csvPath := flag.String("csv", "", "also write the windows and summaries to this CSV file")
	flag.Parse()
	os.Exit(run(*psidBin, *nodes, *handovers, *dur, *csvPath))
}

// run drives the harness and returns the process exit code. The
// orchestration narrates to stderr; the report goes to stdout (and
// csvPath, when set).
func run(psidBin string, nodes, handovers int, roundDur time.Duration, csvPath string) int {
	if psidBin == "" {
		fmt.Fprintln(os.Stderr, "psiload: needs -psid (path to the psid binary)")
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
