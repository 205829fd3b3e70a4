package service

// The connection loop: one goroutine per client reads request lines,
// dispatches them and writes the replies in order — one socket write per
// burst of pipelined lines, not one per reply. LineConn is the same loop
// body without the socket.

import (
	"bufio"
	"bytes"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/obs"
)

// connState is one connection's reusable serving buffers: the request
// struct (slice fields keep their capacity across parses), the
// resolved-hit scratch the Collection appends into, the last query's cost
// for the slow-query log, and the response encode buffer (the long-line
// accumulation scratch stays a handleConn local). One goroutine owns each
// conn, so nothing here is locked; a warm connection serves
// GET/NEARBY/WITHIN round trips with no per-line allocations at all.
type connState struct {
	req     Request
	entries []collection.Entry
	cost    obs.QueryCost
	out     []byte
}

// countedConn counts the writes that reach the socket.
type countedConn struct {
	net.Conn
	writes *atomic.Uint64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// handleConn serves one client: read a line, dispatch, encode the reply,
// in order, until the client disconnects or the server drains. Replies
// collect in the write buffer and go out when the next read would block:
// a client that pipelines a burst of lines gets its replies in one write
// (or one per filled buffer), a client that waits for each reply gets it
// at once. A durable SET is still encoded only after its commit returned,
// so no acknowledgement can reach the socket early.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(countedConn{conn, &s.met.socketWrites}, 64<<10)
	cs := new(connState)
	var lineScratch []byte
	var replies uint64 // encoded since the last flush
	for {
		// Every return below leaves the write buffer empty: it is flushed
		// before any read that can block or fail.
		line, tooLong, err := readLine(br, s.opts.MaxLineBytes, &lineScratch)
		if err != nil {
			// Client disconnect, mid-line EOF, or the Shutdown read
			// deadline. A client that vanishes mid-batch leaves its
			// already-enqueued ops in the coalescing log — they commit at
			// the next flush like any acknowledged write.
			return
		}
		draining := s.closing.Load()
		switch {
		case draining:
			res := errResult(CodeShutdown, "server is shutting down")
			cs.out = appendResult(cs.out[:0], &res, s.dims)
		case tooLong:
			s.met.badLines.Add(1)
			res := errResultf(CodeTooLarge, "line exceeds %d bytes", s.opts.MaxLineBytes)
			cs.out = appendResult(cs.out[:0], &res, s.dims)
		default:
			// Empty lines flow through dispatch and fail JSON parsing: the
			// protocol promises exactly one response per request line, so a
			// blank line gets its bad_request rather than silence.
			cs.out = s.serve(line, cs)
		}
		bw.Write(cs.out)
		replies++
		// One huge WITHIN must not pin its buffers for the connection's
		// lifetime (mirrors the client-side lineBuf cap): steady-state
		// responses stay far below these.
		if cap(cs.out) > maxRetainedOut {
			cs.out = nil
		}
		if cap(cs.entries) > maxRetainedEntries {
			cs.entries = nil
		}
		if !draining && lineBuffered(br) {
			continue
		}
		s.met.replies.Add(replies)
		replies = 0
		if bw.Flush() != nil || draining {
			return
		}
	}
}

// lineBuffered reports whether the next readLine returns without reading
// from the connection. Buffered bytes alone do not say so: behind the
// first half of a line the read blocks, and the replies must not wait for
// a client that is itself waiting for them.
func lineBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// serve executes one request line and returns its encoded reply, in
// cs.out: the path a socket connection and a LineConn share. A command
// that crossed the slow-query threshold is recorded with its cost;
// protocol rejects (op < 0) are not queries and are skipped.
func (s *Server) serve(line []byte, cs *connState) []byte {
	t0 := time.Now()
	op, res := s.dispatch(line, cs)
	d := time.Since(t0)
	s.met.record(op, d, res.ok)
	if s.slow != nil && op >= 0 && d >= s.opts.SlowLog {
		s.slow.Record(opOrder[op], line, d, cs.cost)
	}
	return appendResult(cs.out[:0], &res, s.dims)
}

// maxRetainedOut and maxRetainedEntries cap the per-connection scratch
// kept between requests: buffers grown past these by one broad query are
// dropped rather than pinned for the connection's lifetime.
const (
	maxRetainedOut     = 1 << 20
	maxRetainedEntries = 1 << 14
)

// readLine reads one \n-terminated line of at most max bytes. Oversized
// lines are discarded through their newline and reported as tooLong so
// the protocol stays line-synchronized. The trailing \n (and optional
// \r) are stripped.
//
// The returned line aliases either the bufio buffer (common case: the
// whole line fits) or *scratch, and is valid only until the next readLine
// call with the same reader — the serving loop fully consumes each line
// before reading the next, so no copy is ever needed.
func readLine(br *bufio.Reader, max int, scratch *[]byte) (line []byte, tooLong bool, err error) {
	frag, err := br.ReadSlice('\n')
	if err == nil {
		// Fast path: the whole line is in the reader's buffer.
		if len(frag) > max+1 { // +1: the newline itself is free
			return nil, true, nil
		}
		return bytes.TrimRight(frag, "\r\n"), false, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	buf := (*scratch)[:0]
	for {
		buf = append(buf, frag...)
		if len(buf) > max {
			*scratch = buf[:0]
			return nil, true, discardLine(br)
		}
		frag, err = br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			*scratch = buf[:0]
			return nil, false, err
		}
		buf = append(buf, frag...)
		*scratch = buf[:0] // recycled next call; the caller is done with line by then
		if len(buf) > max+1 {
			return nil, true, nil
		}
		return bytes.TrimRight(buf, "\r\n"), false, nil
	}
}

// discardLine consumes input through the next newline.
func discardLine(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue
		}
		return err
	}
}

// LineConn is a virtual connection: it serves protocol lines in process,
// through exactly the per-connection parse/dispatch/encode path (and
// metrics recording) a socket connection uses, minus the TCP round trip.
// It exists for embedders that want protocol semantics at function-call
// speed and for the allocation benchmarks that measure the serving path
// in isolation. A LineConn is owned by one goroutine, like a socket
// connection; open one per serving goroutine.
type LineConn struct {
	s  *Server
	cs connState
}

// NewLineConn returns a virtual connection on the server. The server
// does not need to be Started.
func (s *Server) NewLineConn() *LineConn { return &LineConn{s: s} }

// Serve executes one protocol line and returns the newline-terminated
// response line. The returned slice is reused by the next Serve call on
// this LineConn; callers that retain it must copy.
func (lc *LineConn) Serve(line []byte) []byte {
	lc.cs.out = lc.s.serve(line, &lc.cs)
	return lc.cs.out
}
