package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// wire is one raw-protocol connection to psid: newline-delimited JSON,
// replies in request order (docs/protocol.md).
type wire struct {
	c  net.Conn
	br *bufio.Reader
}

func dialWire(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wire{c: c, br: bufio.NewReaderSize(c, 256<<10)}, nil
}

func (w *wire) close() { w.c.Close() }

// reply reads one reply line; the slice is valid until the next read.
func (w *wire) reply() ([]byte, error) {
	line, err := w.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		// A reply longer than the buffer (a very broad WITHIN): take the
		// allocating path for this one line.
		big := bytes.Clone(line)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = w.br.ReadSlice('\n')
			big = append(big, line...)
		}
		line = big
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

var okPrefix = []byte(`{"ok":true`)

func replyOK(line []byte) bool { return bytes.HasPrefix(line, okPrefix) }

// do sends one request line and returns its reply.
func (w *wire) do(line string) ([]byte, error) {
	if _, err := w.c.Write([]byte(line + "\n")); err != nil {
		return nil, err
	}
	return w.reply()
}

// flushBarrier issues FLUSH: on return every acknowledged SET, from any
// connection, is visible to NEARBY/WITHIN.
func (w *wire) flushBarrier() error {
	line, err := w.do(`{"op":"FLUSH"}`)
	if err != nil {
		return fmt.Errorf("FLUSH: %w", err)
	}
	if !replyOK(line) {
		return fmt.Errorf("FLUSH refused: %s", bytes.TrimSpace(line))
	}
	return nil
}

// serverStats is the part of the STATS payload the benchmark reads. Fields
// a later server no longer sends decode as zero.
type serverStats struct {
	Objects int    `json:"objects"`
	Flushes uint64 `json:"flushes"`
	Ops     map[string]struct {
		Count  uint64  `json:"count"`
		MeanUs float64 `json:"mean_us"`
	} `json:"ops"`
	WAL *struct {
		Appends       uint64 `json:"appends"`
		AppendedBytes uint64 `json:"appended_bytes"`
		Fsyncs        uint64 `json:"fsyncs"`
		Snapshots     uint64 `json:"snapshots"`
		Recovery      struct {
			Objects int `json:"recovered_objects"`
			Records int `json:"replayed_records"`
		} `json:"recovery"`
	} `json:"wal"`
}

func (w *wire) stats() (serverStats, error) {
	line, err := w.do(`{"op":"STATS"}`)
	if err != nil {
		return serverStats{}, fmt.Errorf("STATS: %w", err)
	}
	var resp struct {
		OK    bool        `json:"ok"`
		Stats serverStats `json:"stats"`
	}
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
		return serverStats{}, fmt.Errorf("STATS: bad reply %q", bytes.TrimSpace(line))
	}
	return resp.Stats, nil
}

// pipelineDepthBulk is the batch size of the untimed bulk phases (preload,
// verification): large enough that the socket, not the round trip, paces
// them.
const pipelineDepthBulk = 1024

// pipeline sends the stream's ops [from, to) in batches of depth lines —
// one write per batch, then one reply read per line — and hands every
// reply to check. It is the single send/receive path of the benchmark: a
// depth of 1 is the interactive closed loop.
func (w *wire) pipeline(s *stream, from, to, depth int, check func(i int, reply []byte, now time.Time, sent time.Time)) error {
	for i := from; i < to; i += depth {
		end := min(i+depth, to)
		sent := time.Now()
		if _, err := w.c.Write(s.buf[s.ops[i].off:s.ops[end-1].end]); err != nil {
			return err
		}
		for j := i; j < end; j++ {
			line, err := w.reply()
			if err != nil {
				return err
			}
			check(j, line, time.Now(), sent)
		}
	}
	return nil
}

// eachConn runs fn once per connection concurrently and joins the errors.
func eachConn(ws []*wire, fn func(c int, w *wire) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for c, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c, w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func dialAll(addr string, n int) ([]*wire, error) {
	ws := make([]*wire, 0, n)
	for range n {
		w, err := dialWire(addr)
		if err != nil {
			closeAll(ws)
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func closeAll(ws []*wire) {
	for _, w := range ws {
		w.close()
	}
}

// preload pushes every object's first SET through the connections and
// ends with a FLUSH barrier. It returns the number of refused SETs.
func preload(ws []*wire, streams []*stream) (refused int, err error) {
	bad := make([]int, len(ws))
	err = eachConn(ws, func(c int, w *wire) error {
		s := streams[c]
		return w.pipeline(s, 0, len(s.ops), pipelineDepthBulk, func(_ int, reply []byte, _, _ time.Time) {
			if !replyOK(reply) {
				bad[c]++
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	for _, b := range bad {
		refused += b
	}
	return refused, ws[0].flushBarrier()
}
