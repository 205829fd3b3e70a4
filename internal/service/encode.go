package service

import (
	"fmt"
	"strconv"

	"repro/internal/collection"
	"repro/internal/geom"
	"repro/internal/obs"
)

// This file is the allocation-free response encoder. The serving hot path
// (SET/GET/NEARBY/WITHIN acks) renders straight into a per-connection
// byte buffer with append-style helpers instead of reflective
// json.Marshal — one fewer allocation *per served line*, which under load
// was the largest single GC contributor in the whole stack. The output is
// byte-compatible JSON with what json.Marshal produced for the same
// Response (field order and omitempty behavior match; the only spec-level
// difference is that json.Marshal additionally escapes <, >, & for HTML
// embedding, which the protocol never relied on). TestEncodeMatchesJSON
// and TestLineConnMatchesJSON pin the equivalence against the
// json.Marshal rendering kept in the tests as the oracle.

// result is one dispatched command's outcome, in pre-wire form: hits stay
// as resolved collection entries (aliasing the connection's scratch, valid
// until the next dispatch on that connection) and points stay as
// geom.Point, so nothing is allocated between the Collection and the
// socket.
type result struct {
	ok         bool
	code       string
	err        string
	leader     string // leader hint on readonly/fenced errors
	found      bool
	p          geom.Point
	hasP       bool
	hasHits    bool
	entries    []collection.Entry
	applied    int
	hasApplied bool
	stats      *StatsPayload
	hasSlow    bool
	slow       []obs.SlowQuery
}

// errResult builds an error result without formatting overhead for the
// common fixed-message cases; formatted variants use errResultf.
func errResult(code, msg string) result {
	return result{ok: false, code: code, err: msg}
}

// errResultf is errResult with fmt.Sprintf formatting (error paths only,
// so the formatting allocation is irrelevant).
func errResultf(code, format string, args ...any) result {
	return result{ok: false, code: code, err: fmt.Sprintf(format, args...)}
}

// appendResult renders r as one newline-terminated JSON response line into
// buf. It allocates only when buf must grow.
func appendResult(buf []byte, r *result, dims int) []byte {
	if r.ok {
		buf = append(buf, `{"ok":true`...)
	} else {
		buf = append(buf, `{"ok":false`...)
	}
	if r.code != "" {
		buf = append(buf, `,"code":`...)
		buf = appendJSONString(buf, r.code)
	}
	if r.err != "" {
		buf = append(buf, `,"err":`...)
		buf = appendJSONString(buf, r.err)
	}
	if r.leader != "" {
		buf = append(buf, `,"leader":`...)
		buf = appendJSONString(buf, r.leader)
	}
	if r.found {
		buf = append(buf, `,"found":true`...)
	}
	if r.hasP {
		buf = append(buf, `,"p":`...)
		buf = appendCoords(buf, r.p, dims)
	}
	if r.hasHits && len(r.entries) > 0 { // omitempty: an empty hit list is omitted
		buf = append(buf, `,"hits":[`...)
		for i, e := range r.entries {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"id":`...)
			buf = appendJSONString(buf, e.ID)
			buf = append(buf, `,"p":`...)
			buf = appendCoords(buf, e.Point, dims)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if r.hasApplied && r.applied != 0 { // omitempty: FLUSH of nothing omits "applied"
		buf = append(buf, `,"applied":`...)
		buf = strconv.AppendInt(buf, int64(r.applied), 10)
	}
	if r.stats != nil {
		buf = append(buf, `,"stats":`...)
		buf = append(buf, marshalNested(r.stats)...)
	}
	if r.hasSlow && len(r.slow) > 0 { // omitempty: an empty slow log is omitted
		buf = append(buf, `,"slow":`...)
		buf = append(buf, marshalNested(r.slow)...)
	}
	return append(buf, '}', '\n')
}

// marshalNested renders a STATS or SLOWLOG body through encoding/json —
// these are probe commands, not a hot path, and the payloads are deeply
// structured.
func marshalNested(v any) []byte {
	b := marshalLine(v)
	return b[:len(b)-1] // strip marshalLine's newline; it nests here
}

// appendCoords renders the first dims coordinates of p as a JSON array.
func appendCoords(buf []byte, p geom.Point, dims int) []byte {
	return appendInts(buf, p[:dims])
}

// appendInts renders xs as a JSON array of integers.
func appendInts(buf []byte, xs []int64) []byte {
	buf = append(buf, '[')
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, x, 10)
	}
	return append(buf, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString renders s as a JSON string: quote, backslash, control
// characters and the JS line separators U+2028/U+2029 are escaped exactly
// as encoding/json escapes them; everything else (including non-ASCII
// UTF-8) passes through verbatim, which is valid JSON.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			// U+2028/U+2029 (E2 80 A8 / E2 80 A9): escaped for parity
			// with json.Marshal, which guards against raw JS embedding.
			if c == 0xe2 && i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xa8 {
				buf = append(buf, s[start:i]...)
				buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[8+s[i+2]&1])
				i += 2
				start = i + 1
			}
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
