package service

// The request scanner: one pass over a request line, no reflection and
// no allocation on the shapes clients actually send. It decodes the fixed
// Request schema exactly as encoding/json.Unmarshal does — same lines
// accepted, same lines rejected, same field values — and encoding/json
// stays in the tests as the oracle (TestParseRequestMatchesJSON,
// FuzzParseRequest). The quirks that equivalence drags in are kept on
// purpose, so that no client sees a different server:
//
//   - keys match case-insensitively under Unicode simple folding (the
//     Kelvin sign spells "k"), escaped keys are decoded first, unknown
//     keys are skipped once their value is checked to be well-formed JSON;
//   - a repeated key decodes again over the earlier value: the later
//     string or number wins, null leaves a string or number untouched and
//     empties an array, and a null array element keeps whatever the slot
//     held from an earlier occurrence on the same line (zero otherwise);
//   - a top-level null is an empty request; any other non-object, a value
//     of the wrong type, a non-integer or out-of-range number in an
//     integer slot, nesting deeper than 10000 and bytes after the value
//     are all rejected;
//   - escapes, invalid UTF-8 and unpaired surrogates in strings decode as
//     encoding/json decodes them (U+FFFD for what cannot be represented).
//
// Only the error text differs: the code stays bad_request.

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// maxDepth is encoding/json's nesting limit; the request object itself is
// level one.
const maxDepth = 10000

// field identifies a Request member.
type field uint8

const (
	fNone field = iota
	fOp
	fID
	fAddr
	fP
	fLo
	fHi
	fK
)

var fieldNames = [...]string{fOp: "op", fID: "id", fAddr: "addr", fP: "p", fLo: "lo", fHi: "hi", fK: "k"}

// String flags reported by scanner.str.
const (
	strEscaped  = 1 << iota // holds a backslash escape
	strNonASCII             // holds a byte >= 0x80
)

// scanner is a cursor over one request line.
type scanner struct {
	b []byte
	i int // next unread byte
}

// parseRequest decodes line into req, every field reset first (slices
// keep their capacity). The string fields of req may alias line: they are
// valid only while line is, and a caller that retains one must clone it.
func parseRequest(line []byte, req *Request) error {
	*req = Request{P: req.P[:0], Lo: req.Lo[:0], Hi: req.Hi[:0]}
	s := scanner{b: line}
	if msg := s.request(req); msg != "" {
		return fmt.Errorf("%s at offset %d", msg, s.i)
	}
	return nil
}

// request scans the whole line; it returns "" or what was wrong at s.i.
func (s *scanner) request(req *Request) string {
	s.space()
	switch s.peek() {
	case '{':
		s.i++
	case 'n':
		// encoding/json decodes null into a struct as "no change".
		if !s.literal("null") {
			return "invalid literal"
		}
		return s.end()
	case 0:
		return "unexpected end of input"
	default:
		return "request is not a JSON object"
	}
	// hw is, per array field, how many leading slots of its backing
	// array hold values written on this line (see ints).
	var hw [3]int
	s.space()
	if s.peek() == '}' {
		s.i++
		return s.end()
	}
	for {
		s.space()
		if s.peek() != '"' {
			return "expected a string key"
		}
		key, flags, ok := s.str()
		if !ok {
			return "invalid string"
		}
		f := fieldOf(key, flags)
		s.space()
		if s.peek() != ':' {
			return "expected ':' after the key"
		}
		s.i++
		s.space()
		switch f {
		case fOp:
			ok = s.stringValue(&req.Op)
		case fID:
			ok = s.stringValue(&req.ID)
		case fAddr:
			ok = s.stringValue(&req.Addr)
		case fP:
			req.P, ok = s.ints(req.P, &hw[0])
		case fLo:
			req.Lo, ok = s.ints(req.Lo, &hw[1])
		case fHi:
			req.Hi, ok = s.ints(req.Hi, &hw[2])
		case fK:
			ok = s.intValue(&req.K)
		default:
			ok = s.skipValue(2)
		}
		if !ok {
			return "invalid value for key " + strconv.Quote(string(key))
		}
		s.space()
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return s.end()
		default:
			return "expected ',' or '}'"
		}
	}
}

// peek returns the next byte, 0 at the end of the line (a NUL byte is
// never valid where peek decides, so the two need no telling apart).
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
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
func (s *scanner) end() string {
	s.space()
	if s.i < len(s.b) {
		return "unexpected data after the request"
	}
	return ""
}

func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// str scans the string whose opening quote is the next byte and returns
// the bytes between the quotes, still encoded.
func (s *scanner) str() (body []byte, flags uint8, ok bool) {
	b := s.b
	i := s.i + 1
	start := i
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			s.i = i + 1
			return b[start:i], flags, true
		case c == '\\':
			flags |= strEscaped
			i++
			if i == len(b) {
				s.i = i
				return nil, 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					s.i = i
					return nil, 0, false
				}
				i += 4
			default:
				s.i = i
				return nil, 0, false
			}
		case c < ' ':
			s.i = i
			return nil, 0, false
		case c >= utf8.RuneSelf:
			flags |= strNonASCII
		}
		i++
	}
	s.i = i
	return nil, 0, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// stringValue decodes a string member: a string replaces *dst, null
// leaves it, anything else is a type error. The common string — no
// escapes, valid UTF-8 — aliases the line.
func (s *scanner) stringValue(dst *string) bool {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
		body, flags, ok := s.str()
		if !ok {
			return false
		}
		if flags&strEscaped == 0 && (flags&strNonASCII == 0 || utf8.Valid(body)) {
			*dst = aliasString(body)
		} else {
			*dst = aliasString(unquote(body))
		}
		return true
	}
	return false
}

// aliasString views b as a string without copying it.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// intValue decodes the integer member k.
func (s *scanner) intValue(dst *int) bool {
	if s.peek() == 'n' {
		return s.literal("null")
	}
	v, ok := s.int64()
	if !ok || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// int64 scans a JSON number that is an integer in range: what
// strconv.ParseInt accepts of the JSON number grammar.
func (s *scanner) int64() (int64, bool) {
	b, i := s.b, s.i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var n uint64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		n = n*10 + uint64(b[i]-'0')
		i++
	}
	s.i = i
	digits := i - start
	// No digits, a leading zero, a fraction or an exponent; 19 digits
	// cannot wrap a uint64, 20 always overflow an int64.
	if digits == 0 || digits > 19 || (b[start] == '0' && digits > 1) {
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// ints decodes a coordinate member into dst's backing array and returns
// the decoded slice. *hw is how many leading slots of that array were
// written earlier on this line: encoding/json decodes a repeated key
// over the earlier value in place, so a null element keeps such a slot's
// value and reads as zero beyond them; null or [] for the whole member
// drops the earlier value.
func (s *scanner) ints(dst []int64, hw *int) ([]int64, bool) {
	switch s.peek() {
	case 'n':
		*hw = 0
		return dst[:0], s.literal("null")
	case '[':
		s.i++
	default:
		return dst, false
	}
	buf := dst[:*hw]
	n := 0
	s.space()
	if s.peek() == ']' {
		s.i++
		*hw = 0
		return buf[:0], true
	}
	for {
		s.space()
		if n == len(buf) {
			buf = append(buf, 0)
		}
		if s.peek() == 'n' {
			if !s.literal("null") {
				return dst, false
			}
		} else {
			v, ok := s.int64()
			if !ok {
				return dst, false
			}
			buf[n] = v
		}
		n++
		s.space()
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			*hw = len(buf)
			return buf[:n], true
		default:
			return dst, false
		}
	}
}

// skipValue checks that the next value is well-formed JSON and steps
// over it. depth is the nesting level an array or object here would be.
func (s *scanner) skipValue(depth int) bool {
	switch c := s.peek(); c {
	case '"':
		_, _, ok := s.str()
		return ok
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	case '[', '{':
		if depth > maxDepth {
			return false
		}
		s.i++
		closer := c + 2 // ']' follows '[' by two, '}' follows '{' by two
		s.space()
		if s.peek() == closer {
			s.i++
			return true
		}
		for {
			s.space()
			if c == '{' {
				if s.peek() != '"' {
					return false
				}
				if _, _, ok := s.str(); !ok {
					return false
				}
				s.space()
				if s.peek() != ':' {
					return false
				}
				s.i++
				s.space()
			}
			if !s.skipValue(depth + 1) {
				return false
			}
			s.space()
			switch s.peek() {
			case ',':
				s.i++
			case closer:
				s.i++
				return true
			default:
				return false
			}
		}
	default:
		return s.number()
	}
}

// number steps over a number of the full JSON grammar.
func (s *scanner) number() bool {
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else if !s.digits() {
		return false
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		return s.digits()
	}
	return true
}

// digits steps over a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// fieldOf maps a key, as str returned it, to the Request member it names.
func fieldOf(key []byte, flags uint8) field {
	if flags != 0 {
		// Escapes, or bytes that may fold onto ASCII: decode, then
		// compare the way encoding/json does.
		key = unquote(key)
		for f := fOp; f <= fK; f++ {
			if bytes.EqualFold(key, []byte(fieldNames[f])) {
				return f
			}
		}
		return fNone
	}
	// c|0x20 equals a lower-case letter only for that letter's two cases.
	switch len(key) {
	case 1:
		switch key[0] | 0x20 {
		case 'p':
			return fP
		case 'k':
			return fK
		}
	case 2:
		switch uint16(key[0]|0x20)<<8 | uint16(key[1]|0x20) {
		case 'o'<<8 | 'p':
			return fOp
		case 'i'<<8 | 'd':
			return fID
		case 'l'<<8 | 'o':
			return fLo
		case 'h'<<8 | 'i':
			return fHi
		}
	case 4:
		if key[0]|0x20 == 'a' && key[1]|0x20 == 'd' && key[2]|0x20 == 'd' && key[3]|0x20 == 'r' {
			return fAddr
		}
	}
	return fNone
}

// unquote decodes a string body that str has validated: escapes are
// resolved, a surrogate pair becomes its rune, and an unpaired surrogate
// or a byte that is not UTF-8 becomes U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			i++
			switch s[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i+1:])
				i += 5
				if utf16.IsSurrogate(r) {
					if len(s)-i >= 6 && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != unicode.ReplacementChar {
							out = utf8.AppendRune(out, pair)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default: // '"', '\\', '/'
				out = append(out, s[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// hex4 decodes the four hex digits str has checked.
func hex4(s []byte) (r rune) {
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
