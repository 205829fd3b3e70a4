package service

// The flush-point contract of the connection loop, over real sockets:
// replies to a pipelined burst share socket writes, and no reply ever
// waits for bytes the client has not sent.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// rawConn dials s and bounds every read, so that a stranded reply fails
// the test instead of hanging it.
func rawConn(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

func setBurst(n int) []byte {
	var b bytes.Buffer
	for i := range n {
		fmt.Fprintf(&b, `{"op":"SET","id":"o%d","p":[%d,%d]}`+"\n", i, i%1000, i%1000)
	}
	return b.Bytes()
}

// wantReplies reads n reply lines and checks each against want(i).
func wantReplies(t *testing.T, br *bufio.Reader, n int, want func(i int) string) {
	t.Helper()
	for i := range n {
		reply, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i, n, err)
		}
		if !strings.Contains(reply, want(i)) {
			t.Fatalf("reply %d = %s, want %s", i, reply, want(i))
		}
	}
}

func ok(int) string { return `{"ok":true` }

// callCountingConn counts the Read and Write calls the server makes.
type callCountingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *callCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *callCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func TestBurstRepliesShareSocketWrites(t *testing.T) {
	s := New(newTestIndex(), Options{FlushInterval: -1})
	defer s.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	server := &callCountingConn{Conn: accepted}
	s.wg.Add(1)
	go s.handleConn(server)

	const n = 1024
	if _, err := client.Write(setBurst(n)); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	wantReplies(t, bufio.NewReader(client), n, ok)
	client.Close()
	s.wg.Wait() // the handler has returned: the counts are final

	// A flush happens only where the next read would block, so every
	// write is followed by a read; the replies are far smaller than the
	// write buffer, which therefore never fills in between.
	reads, writes := server.reads.Load(), server.writes.Load()
	if writes > reads || writes >= n/4 {
		t.Errorf("%d replies took %d socket writes over %d reads, want at most one write per read", n, writes, reads)
	}
	if got := s.met.replies.Load(); got != n {
		t.Errorf("replies counter = %d, want %d", got, n)
	}
	if got := s.met.socketWrites.Load(); got != uint64(writes) {
		t.Errorf("socket-writes counter = %d, the connection saw %d", got, writes)
	}
}

func TestReplyNotStrandedBehindHalfLine(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{})
	conn, br := rawConn(t, s)
	// One write: a whole line and the first half of the next. The read
	// buffer is not empty after the first line, yet the next read blocks.
	if _, err := conn.Write([]byte(`{"op":"SET","id":"a","p":[1,2]}` + "\n" + `{"op":"GET",`)); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, 1, ok)
	if _, err := conn.Write([]byte(`"id":"a"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, 1, func(int) string { return `"found":true` })
}

func TestHalfCloseAfterBurstGetsEveryReply(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{})
	conn, br := rawConn(t, s)
	// The `printf … | nc -q1` shape: send everything, close the sending
	// side, then read to the end.
	const n = 300
	if _, err := conn.Write(setBurst(n)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, br, n, ok)
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the last reply: %q, %v, want a clean end", rest, err)
	}
}

func TestShutdownMidBurst(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{})
	// The burst's FLUSH journals a window; the hook starts Shutdown right
	// there, so the server starts draining with half of the burst served
	// and the other half already in its read buffer.
	shutdownDone := make(chan error, 1)
	s.coll.SetJournal(func(uint64, []wal.Op) error {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdownDone <- s.Shutdown(ctx)
		}()
		for !s.closing.Load() {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	conn, br := rawConn(t, s)
	burst := `{"op":"SET","id":"a","p":[1,2]}` + "\n" + `{"op":"FLUSH"}` + "\n" +
		`{"op":"SET","id":"b","p":[3,4]}` + "\n" + `{"op":"SET","id":"c","p":[5,6]}` + "\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"ok":true}`, `"applied":1`, CodeShutdown}
	wantReplies(t, br, len(want), func(i int) string { return want[i] })
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the shutdown error: %q, %v, want the connection closed", rest, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestOversizedLineInsideBurst(t *testing.T) {
	s := startServer(t, newTestIndex(), Options{MaxLineBytes: 256})
	conn, br := rawConn(t, s)
	burst := `{"op":"SET","id":"a","p":[1,2]}` + "\n" +
		`{"op":"SET","id":"` + strings.Repeat("x", 300) + `","p":[1,2]}` + "\n" +
		`{"op":"GET","id":"a"}` + "\n" +
		`{"op":"SET","id":"` + strings.Repeat("y", 100<<10) + `","p":[1,2]}` + "\n" + // longer than the read buffer
		`{"op":"GET","id":"a"}` + "\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"ok":true}`, CodeTooLarge, `"found":true`, CodeTooLarge, `"found":true`}
	wantReplies(t, br, len(want), func(i int) string { return want[i] })
}
