package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
)

// Client is a minimal psid protocol client: one TCP connection, one
// request/response in flight at a time. Methods are safe for concurrent
// use (a mutex serializes the wire exchange); open several Clients for
// parallelism — the server is one goroutine per connection, so
// connections are the unit of serving concurrency. Requests are encoded
// with encoding/json; every response is decoded into fresh memory the
// caller owns.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	lineBuf []byte // long-line accumulation scratch, guarded by mu
}

// clientMaxLine bounds one response line client-side. WITHIN over a huge
// box returns every hit on one line, so this is generous.
const clientMaxLine = 64 << 20

// Dial connects to a psid server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("psid: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// Close closes the connection. Pending server-side ops from acknowledged
// SET/DEL calls still commit at the server's next flush.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request line and reads the matching response line. It
// returns transport errors; protocol errors come back as a Response with
// OK false (convert with Response.AsError).
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// One huge WITHIN response must not pin its buffer for the connection's
	// lifetime: drop oversized scratch once the call is over (the capacity
	// cap keeps steady-state calls recycling).
	defer func() {
		if cap(c.lineBuf) > 1<<20 {
			c.lineBuf = nil
		}
	}()
	if _, err := c.conn.Write(marshalLine(req)); err != nil {
		return Response{}, fmt.Errorf("psid: write: %w", err)
	}
	line, tooLong, err := readLine(c.br, clientMaxLine, &c.lineBuf)
	if err != nil {
		return Response{}, fmt.Errorf("psid: read: %w", err)
	}
	if tooLong {
		return Response{}, fmt.Errorf("psid: response line exceeds %d bytes", clientMaxLine)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("psid: decode response: %w", err)
	}
	return resp, nil
}

// do runs a request and folds protocol errors into the error return.
func (c *Client) do(req Request) (Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return resp, err
	}
	return resp, resp.AsError()
}

// Set registers or moves id to the point with the given coordinates
// (exactly the server's dims of them).
func (c *Client) Set(id string, p []int64) error {
	_, err := c.do(Request{Op: OpSet, ID: id, P: p})
	return err
}

// Del retires id (a no-op server-side if absent).
func (c *Client) Del(id string) error {
	_, err := c.do(Request{Op: OpDel, ID: id})
	return err
}

// Get returns id's position (read-your-writes through the server's
// pending log) and whether it is tracked.
func (c *Client) Get(id string) ([]int64, bool, error) {
	resp, err := c.do(Request{Op: OpGet, ID: id})
	if err != nil {
		return nil, false, err
	}
	return resp.P, resp.Found, nil
}

// Nearby returns the k tracked objects nearest p, nearest first.
func (c *Client) Nearby(p []int64, k int) ([]Hit, error) {
	resp, err := c.do(Request{Op: OpNearby, P: p, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Within returns every tracked object inside the box [lo, hi]
// (inclusive; order unspecified).
func (c *Client) Within(lo, hi []int64) ([]Hit, error) {
	resp, err := c.do(Request{Op: OpWithin, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Stats fetches the server's serving and collection counters.
func (c *Client) Stats() (StatsPayload, error) {
	resp, err := c.do(Request{Op: OpStats})
	if err != nil {
		return StatsPayload{}, err
	}
	if resp.Stats == nil {
		return StatsPayload{}, fmt.Errorf("psid: STATS response missing stats body")
	}
	return *resp.Stats, nil
}

// Flush forces the server to commit all pending ops and returns the
// number of index mutations applied. It is a visibility barrier for
// every client: on return, all previously acknowledged SET/DEL calls —
// from any connection — are visible to Nearby/Within.
func (c *Client) Flush() (int, error) {
	resp, err := c.do(Request{Op: OpFlush})
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// Promote flips a follower server into the replication leader (see
// docs/replication.md, "Failover"). addr optionally overrides the
// listen address the server was started with ("" uses its -repl flag).
// On return the server accepts writes.
func (c *Client) Promote(addr string) error {
	_, err := c.do(Request{Op: OpPromote, Addr: addr})
	return err
}

// Demote fences a leader server: it refuses writes with CodeFenced
// until re-pointed with Follow. addr, when non-empty, is recorded as
// the leader hint returned alongside fenced errors.
func (c *Client) Demote(addr string) error {
	_, err := c.do(Request{Op: OpDemote, Addr: addr})
	return err
}

// Follow re-points a follower (or fenced ex-leader) server at the
// leader's replication listener at addr.
func (c *Client) Follow(addr string) error {
	_, err := c.do(Request{Op: OpFollow, Addr: addr})
	return err
}
