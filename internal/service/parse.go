package service

// The request scanner: one pass over a request line, no reflection and
// no allocation, for the lines clients send. It takes one JSON object
// whose keys are Request members spelled in lower case, each used at most
// once; whose strings hold no escape, no control byte and only valid
// UTF-8; and whose numbers, alone or in arrays, are integers in range.
// Every other line — nulls, unknown or folded keys, escapes, repeated
// keys, fractions, anything malformed — goes to encoding/json on a fresh
// Request. So a line is either one the scanner decodes exactly as
// encoding/json would, or one encoding/json decodes itself: the wire
// contract is encoding/json's by construction, and a rejected line's
// error is encoding/json's. TestParseRequestMatchesJSON and
// FuzzParseRequest check the two against each other on any bytes.

import (
	"encoding/json"
	"unicode/utf8"
	"unsafe"
)

// scanner is a cursor over one request line.
type scanner struct {
	b []byte
	i int // next unread byte
}

// parseRequest decodes line into req, every field reset first. A line the
// scanner takes keeps req's slice capacity, and its string fields alias
// line: they are valid only while line is, and a caller that retains one
// must clone it.
func parseRequest(line []byte, req *Request) error {
	*req = Request{P: req.P[:0], Lo: req.Lo[:0], Hi: req.Hi[:0]}
	s := scanner{b: line}
	if s.request(req) {
		return nil
	}
	// Fresh, not reset: decoding into the reused arrays would let a null
	// element keep a value an earlier line left in its slot.
	*req = Request{}
	return json.Unmarshal(line, req)
}

// request scans the whole line and reports whether it is one the scanner
// takes; on false, req holds partial values that the caller discards.
func (s *scanner) request(req *Request) bool {
	s.space()
	if !s.take('{') {
		return false
	}
	s.space()
	if s.take('}') {
		return s.end()
	}
	var seen uint8 // one bit per member decoded so far
	for {
		s.space()
		key, ok := s.str()
		s.space()
		if !ok || !s.take(':') {
			return false
		}
		s.space()
		var bit uint8
		switch string(key) {
		case "op":
			bit, ok = 1<<0, s.stringValue(&req.Op)
		case "id":
			bit, ok = 1<<1, s.stringValue(&req.ID)
		case "addr":
			bit, ok = 1<<2, s.stringValue(&req.Addr)
		case "p":
			bit, ok = 1<<3, s.ints(&req.P)
		case "lo":
			bit, ok = 1<<4, s.ints(&req.Lo)
		case "hi":
			bit, ok = 1<<5, s.ints(&req.Hi)
		case "k":
			bit, ok = 1<<6, s.intValue(&req.K)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		s.space()
		if s.take('}') {
			return s.end()
		}
		if !s.take(',') {
			return false
		}
	}
}

// take steps over c if it is the next byte.
func (s *scanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// end accepts only white space up to the end of the line.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// str scans a string and returns the bytes between its quotes, which
// encoding/json would decode to the same bytes: no escape, no control
// byte, valid UTF-8.
func (s *scanner) str() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			body := s.b[start:s.i]
			s.i++
			return body, ascii || utf8.Valid(body)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// stringValue decodes a string member as a view of the line.
func (s *scanner) stringValue(dst *string) bool {
	body, ok := s.str()
	*dst = unsafe.String(unsafe.SliceData(body), len(body))
	return ok
}

// intValue decodes the integer member k.
func (s *scanner) intValue(dst *int) bool {
	v, ok := s.int64()
	*dst = int(v)
	return ok && int64(*dst) == v
}

// int64 scans a JSON number that is an integer in range: what
// strconv.ParseInt accepts of the JSON number grammar.
func (s *scanner) int64() (int64, bool) {
	neg := s.take('-')
	start := s.i
	var n uint64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		n = n*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	// No digits or a leading zero; 19 digits cannot wrap a uint64, 20
	// always overflow an int64. A fraction or an exponent fails the
	// caller, which expects a delimiter next.
	digits := s.i - start
	if digits == 0 || digits > 19 || (s.b[start] == '0' && digits > 1) {
		return 0, false
	}
	if neg {
		return -int64(n), n <= 1<<63
	}
	return int64(n), n <= 1<<63-1
}

// ints decodes an array of integers onto *dst, which parseRequest emptied.
func (s *scanner) ints(dst *[]int64) bool {
	if !s.take('[') {
		return false
	}
	s.space()
	if s.take(']') {
		return true
	}
	for {
		s.space()
		v, ok := s.int64()
		if !ok {
			return false
		}
		*dst = append(*dst, v)
		s.space()
		if s.take(']') {
			return true
		}
		if !s.take(',') {
			return false
		}
	}
}
