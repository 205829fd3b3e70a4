package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/collection"
	"repro/internal/geom"
	"repro/internal/obs"
)

// encodeCases covers every response shape the hot path renders: plain
// acks, errors (including strings needing JSON escaping), GET hit/miss,
// NEARBY/WITHIN hit lists (empty and multi), and FLUSH applied counts
// (zero is omitted by omitempty).
func encodeCases() []result {
	return []result{
		{ok: true},
		{ok: false, code: CodeBadRequest, err: `parse: quote " backslash \ and control` + "\n\t\x01 done`"},
		{ok: false, code: CodeTooLarge, err: "line exceeds 1024 bytes"},
		{ok: false, code: CodeBadRequest, err: "js line separators \u2028 and \u2029 escape like json.Marshal"},
		{ok: true, found: true, p: geom.Pt2(-7, 42), hasP: true},
		{ok: true, found: false},
		{ok: true, hasHits: true, entries: nil},
		{ok: true, hasHits: true, entries: []collection.Entry{
			{ID: "veh-1", Point: geom.Pt2(3, 4)},
			{ID: `we"ird\id`, Point: geom.Pt2(-1, -2)},
			{ID: "üñïçødé", Point: geom.Pt2(0, 9)},
		}},
		{ok: true, hasApplied: true, applied: 0},
		{ok: true, hasApplied: true, applied: 123},
		{ok: false, code: CodeReadonly, err: "SET: read-only replica", leader: "10.0.0.7:7601"},
		{ok: false, code: CodeFenced, err: "SET: writes are fenced", leader: ""},
	}
}

// slowEncodeCases are the SLOWLOG response shapes: probe-command output
// (rendered through encoding/json like STATS), so they join the parity
// test but not the zero-alloc guard.
func slowEncodeCases() []result {
	return []result{
		{ok: true, hasSlow: true, slow: nil}, // empty slow log: omitted
		{ok: true, hasSlow: true, slow: []obs.SlowQuery{
			{Seq: 2, UnixNano: 1700000000000, DurNs: 5_000_000, Cmd: OpNearby,
				Args: `{"op":"NEARBY","p":[1,2],"k":10}`, Candidates: 17, Epoch: 9},
			{Seq: 1, Cmd: OpWithin, Args: "trunc", Truncated: true},
		}},
	}
}

// TestEncodeMatchesJSON pins the hand-rolled encoder to what
// json.Marshal produces for the equivalent Response: byte-identical
// lines for strings without HTML-escaped characters, and semantically
// identical JSON otherwise (json.Marshal additionally escapes <, >, &,
// which the protocol never relied on).
func TestEncodeMatchesJSON(t *testing.T) {
	const dims = 2
	for i, res := range append(encodeCases(), slowEncodeCases()...) {
		got := appendResult(nil, &res, dims)
		want := marshalLine(res.response(dims))
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: encoder diverged\n got: %s\nwant: %s", i, got, want)
		}
	}
	// HTML-escaped characters: semantic equality.
	res := result{ok: false, code: CodeBadRequest, err: `html <&> chars`}
	var got, want Response
	if err := json.Unmarshal(appendResult(nil, &res, dims), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(marshalLine(res.response(dims)), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("html-escape case diverged: got %+v want %+v", got, want)
	}
}

// TestEncodeZeroAlloc is the allocation guard for the service encode
// path: rendering any steady-state response shape into a warm buffer
// allocates nothing.
func TestEncodeZeroAlloc(t *testing.T) {
	const dims = 2
	cases := encodeCases()
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range cases {
			buf = appendResult(buf[:0], &cases[i], dims)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm encode path allocates %.2f/op, want 0", allocs)
	}
}

// response renders a result as the public wire struct — the reflective
// json.Marshal form of a response line. The server only ever uses the
// append encoder; this is the oracle it is checked against.
func (r *result) response(dims int) Response {
	resp := Response{OK: r.ok, Code: r.code, Err: r.err, Leader: r.leader, Found: r.found, Stats: r.stats}
	if r.hasSlow {
		resp.Slow = r.slow
	}
	if r.hasApplied {
		resp.Applied = r.applied
	}
	if r.hasP {
		resp.P = coords(r.p, dims)
	}
	if r.hasHits {
		hits := make([]Hit, len(r.entries))
		for i, e := range r.entries {
			hits[i] = Hit{ID: e.ID, P: coords(e.Point, dims)}
		}
		resp.Hits = hits
	}
	return resp
}

// coords flattens the first dims coordinates of p for the wire struct.
func coords(p geom.Point, dims int) []int64 {
	return append([]int64(nil), p[:dims]...)
}

// TestLineConnMatchesJSON drives identical command sequences through two
// servers in lockstep: one serves the lines through LineConn (the append
// encoder, as every connection does), the other only dispatches them and
// renders each result with json.Marshal. The response lines must be
// byte-identical — the append encoder is json.Marshal for every shape
// the protocol produces.
func TestLineConnMatchesJSON(t *testing.T) {
	mk := func() *Server { return New(newTestIndex(), Options{FlushInterval: -1}) }
	fast, oracle := mk().NewLineConn(), mk()
	var cs connState
	lines := []string{
		`{"op":"SET","id":"a","p":[10,10]}`,
		`{"op":"SET","id":"b","p":[20,20]}`,
		`{"op":"SET","id":"we\"ird\\id","p":[30,30]}`,
		`{"op":"FLUSH"}`,
		`{"op":"GET","id":"a"}`,
		`{"op":"GET","id":"missing"}`,
		`{"op":"NEARBY","p":[0,0],"k":2}`,
		`{"op":"NEARBY","p":[0,0],"k":10}`,
		`{"op":"WITHIN","lo":[0,0],"hi":[25,25]}`,
		`{"op":"WITHIN","lo":[100,100],"hi":[200,200]}`,
		`{"op":"DEL","id":"a"}`,
		`{"op":"FLUSH"}`,
		`{"op":"NEARBY","p":[0,0],"k":1}`,
		`{"op":"nope"}`,
		`not json`,
		`{"op":"SET","id":"","p":[1,1]}`,
		`{"op":"NEARBY","p":[1],"k":3}`,
	}
	for i, line := range lines {
		got := fast.Serve([]byte(line))
		_, res := oracle.dispatch([]byte(line), &cs)
		want := marshalLine(res.response(oracle.dims))
		if !bytes.Equal(got, want) {
			t.Errorf("line %d (%s):\n append: %s json:   %s", i, line, got, want)
		}
	}
}
