package main

import (
	"math/rand"
	"time"
)

// The memory probe reads what the host does to the benchmark while a
// traced window runs. On the shared two-core microVMs this benchmark is
// run on, the same binary with the same seed runs in regimes that differ
// by a fifth or more and last a minute or more. There is no steal time and
// an ALU loop does not move; often — not always — the latency of dependent
// loads over an array far larger than the caches moves with them: other
// tenants' memory traffic. The probe is reported as client.mem_probe_ns so
// that a reader of two traced runs can tell a change in the code from a
// change in the neighbours. It scales nothing: scaling the clock-derived
// metrics by it halved their spread on some days and doubled it on others.
const (
	probeEntries  = 8 << 20 // 32 MB of int32: far beyond the caches
	probeLoads    = 8192    // dependent loads per sample, about 1.3 ms: shorter bursts read mostly their own cold start
	probeInterval = 20 * time.Millisecond
)

type memProbe struct {
	next    []int32
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // ns per load
	end     int32     // where the chase stopped: keeps the loads observable
}

// startMemProbe builds the random cycle (a few hundred milliseconds) and
// samples it in a goroutine of its own until finish: a burst of dependent
// loads, then a sleep, about 6 % of one core.
func startMemProbe() *memProbe {
	p := &memProbe{next: make([]int32, probeEntries), stop: make(chan struct{}), done: make(chan struct{})}
	perm := rand.New(rand.NewSource(1)).Perm(probeEntries)
	for i, at := range perm {
		p.next[at] = int32(perm[(i+1)%probeEntries])
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			t0 := time.Now()
			for range probeLoads {
				p.end = p.next[p.end]
			}
			p.samples = append(p.samples, float64(time.Since(t0).Nanoseconds())/probeLoads)
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampling and returns the median latency of one load.
func (p *memProbe) finish() float64 {
	close(p.stop)
	<-p.done
	return median(p.samples)
}
