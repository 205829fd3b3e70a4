package service

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// dirtyLine fills every Request field, so that a parse following it shows
// whether the per-line reset is complete.
const dirtyLine = `{"op":"x","id":"y","addr":"z","p":[7,7,7],"lo":[7,7,7],"hi":[7,7,7],"k":7}`

// diffParse runs line through the scanner, on a Request another line has
// already used, and through encoding/json on a fresh one. It returns ""
// when both accept with equal fields or both reject.
func diffParse(line []byte) string {
	var got Request
	if err := parseRequest([]byte(dirtyLine), &got); err != nil {
		return "dirty line rejected: " + err.Error()
	}
	gotErr := parseRequest(line, &got)
	var want Request
	wantErr := json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("scanner error %v, encoding/json error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	if got.Op != want.Op || got.ID != want.ID || got.Addr != want.Addr || got.K != want.K ||
		!slices.Equal(got.P, want.P) || !slices.Equal(got.Lo, want.Lo) || !slices.Equal(got.Hi, want.Hi) {
		return fmt.Sprintf("scanner %+v, encoding/json %+v", got, want)
	}
	return ""
}

// protocolExamples returns every request line docs/protocol.md shows.
func protocolExamples(t testing.TB) []string {
	doc, err := os.ReadFile("../../docs/protocol.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := regexp.MustCompile(`\{"op":[^}]*\}`).FindAllString(string(doc), -1)
	if len(lines) < 10 {
		t.Fatalf("found only %d request examples in docs/protocol.md", len(lines))
	}
	return lines
}

// maxDepth is encoding/json's nesting limit; the request object itself is
// level one.
const maxDepth = 10000

// parseCorners are the inputs on which a hand-written scanner and
// encoding/json are most likely to part.
var parseCorners = []string{
	// Not an object, or not one value.
	``, ` `, `null`, ` null `, `nul`, `nullx`, `true`, `5`, `"SET"`, `[]`, `[{"op":"SET"}]`, "\x00",
	`{}`, ` { } `, `{"op":"GET","id":"a"} x`, `{"op":"GET","id":"a"}{}`, `{"op":"GET",}`, `{,}`,
	`{"op"}`, `{"op":}`, `{"op":"GET" "id":"a"}`, `{op:"GET"}`, `{"op":"GET"`, `{"op":"GET`,
	"{\"op\"\t:\r\"GET\" ,\n\"id\" : \"a\" }", "{\"op\":\"GET\"\v}",
	// Keys: case folding, escapes, duplicates, unknown keys.
	`{"OP":"set","Id":"a","P":[1,2],"ADDR":"h:1","LO":[1],"Hi":[2],"K":3}`,
	`{"\u006fp":"GET","i\u0064":"a"}`, `{"\u212a":5}`, "{\"\u212a\":5}", "{\"\u017fet\":1}",
	"{\"k\xff\":5}", `{"":1,"op":"GET"}`, `{"opp":"x","o":"y","addrs":"z"}`,
	`{"op":"SET","op":"GET"}`, `{"id":"a","id":null}`, `{"k":4,"k":null}`, `{"k":4,"K":5}`,
	`{"x":{"a":[1,2,{"b":null}],"c":"d"},"op":"GET"}`, `{"x":[1,2,],"op":"GET"}`, `{"x":{"a"},"op":"GET"}`,
	`{"x":1.5e+3,"y":-0.0,"z":1E9}`, `{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":-}`, `{"x":1e}`, `{"x":+1}`,
	`{"x":tru}`, `{"x":True}`, `{"x":"a\qb"}`, `{"x":"a\u12"}`, `{"x":"a\u12g4"}`, "{\"x\":\"a\x01b\"}", `{"x":"a\`,
	// Strings: escapes, surrogates, invalid UTF-8.
	`{"id":"a\"b\\c\/d\b\f\n\r\t"}`, `{"id":"\u00e9\u4e16\u0000"}`, `{"id":"é世界"}`, "{\"id\":\"\xff\xfe\"}", "{\"id\":\"ok\xc3\"}", "{\"id\":\"a\x01b\"}", "{\"op\":\"GET\tx\"}",
	`{"id":"\ud83d\ude00"}`, `{"id":"\ud83d"}`, `{"id":"\ude00"}`, `{"id":"\ud83d\u0041"}`, `{"id":"\ud83d\ud83d\ude00"}`,
	`{"id":"\ud83dx"}`, `{"id":"\uD83D\uDE00"}`, `{"id":""}`, `{"id":5}`, `{"id":true}`, `{"id":["a"]}`, `{"id":{"a":1}}`,
	`{"op":null,"id":null,"addr":null,"p":null,"lo":null,"hi":null,"k":null}`,
	// Integers.
	`{"k":0}`, `{"k":-0}`, `{"k":-1}`, `{"k":1e3}`, `{"k":1.0}`, `{"k":1E0}`, `{"k":01}`, `{"k":"1"}`, `{"k":[1]}`, `{"k":-}`,
	`{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775808}`, `{"k":-9223372036854775809}`,
	`{"k":18446744073709551616}`, `{"k":99999999999999999999999999}`, `{"k":0000000000000000000000001}`,
	// Coordinate arrays, including a repeated key decoded over the earlier value.
	`{"p":[]}`, `{"p":[ ]}`, `{"p":[1]}`, `{"p":[1,2,3,4,5,6,7,8,9]}`, `{"p":[1,]}`, `{"p":[,1]}`, `{"p":[1 2]}`, `{"p":[1,2`, `{"p":5}`, `{"p":"1,2"}`, `{"p":{"x":1}}`,
	`{"p":[1.5,2]}`, `{"p":[1,"2"]}`, `{"p":[1,[2]]}`, `{"p":[1,true]}`, `{"p":[9223372036854775808]}`, `{"p":[-9223372036854775808,9223372036854775807]}`,
	`{"p":[null]}`, `{"p":[null,5]}`, `{"p":[7,8],"p":[null]}`, `{"p":[7,8],"p":[1],"p":[null,null]}`, `{"p":[7,8,9],"p":[1],"p":[null,null,null,null,null]}`,
	`{"p":[7,8],"p":[1]}`, `{"lo":[1,2],"hi":[3,4],"lo":[5,6]}`, `{"p":[7,8],"p":[],"p":[null,null]}`, `{"p":[7,8],"p":null,"p":[null,null]}`, `{"p":[7,8],"P":[1]}`, `{"p":[7,8],"lo":[null,null],"hi":[3]}`,
}

// TestParseRequestMatchesJSON pins the scanner to encoding/json on the
// documented request lines, the corner table and the nesting limit.
func TestParseRequestMatchesJSON(t *testing.T) {
	lines := append(protocolExamples(t), parseCorners...)
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		// The request object is level one, so depth levels under it are
		// depth+1 in all.
		lines = append(lines,
			`{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`,
			`{"x":`+strings.Repeat(`{"a":`, depth)+`1`+strings.Repeat("}", depth)+`}`)
	}
	for _, line := range lines {
		if d := diffParse([]byte(line)); d != "" {
			t.Errorf("%.80q: %s", line, d)
		}
	}
}

// FuzzParseRequest is the differential fuzz target behind the scanner:
// same accept/reject and same field values as encoding/json, on any bytes.
func FuzzParseRequest(f *testing.F) {
	for _, line := range protocolExamples(f) {
		f.Add([]byte(line))
	}
	for _, line := range parseCorners {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if d := diffParse(line); d != "" {
			t.Fatalf("%q: %s", line, d)
		}
	})
}

// TestParseRequestAllocBudget holds every request line docs/protocol.md
// shows, and the SET, GET, NEARBY, WITHIN and DEL shapes of the load
// client, on the scanner: none allocates, so none is left to
// encoding/json, which allocates on every line.
func TestParseRequestAllocBudget(t *testing.T) {
	lines := protocolExamples(t)
	for _, line := range [][]byte{benchSET, benchGET, benchNEARBY, benchWITHIN, benchDEL} {
		lines = append(lines, string(line))
	}
	var req Request
	for _, line := range lines {
		b := []byte(line)
		if err := parseRequest(b, &req); err != nil { // warm: req's arrays grown
			t.Fatalf("%s: %v", line, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = parseRequest(b, &req) }); allocs > 0 {
			t.Errorf("%s: %.2f allocs per parse, budget 0", line, allocs)
		}
	}
}

var (
	benchSET    = []byte(`{"op":"SET","id":"veh-000123","p":[512,768]}`) // inside testUniverse
	benchGET    = []byte(`{"op":"GET","id":"veh-000123"}`)
	benchNEARBY = []byte(`{"op":"NEARBY","p":[500,500],"k":10}`)
	benchWITHIN = []byte(`{"op":"WITHIN","lo":[400,400],"hi":[600,600]}`)
	benchDEL    = []byte(`{"op":"DEL","id":"veh-000123"}`)
)

// TestServeAllocBudget is the allocation guard for the whole serving path
// (scan, dispatch, encode) on a warm connection: no line allocates —
// queries resolve into connection scratch, and a write's ID is copied
// into the Collection's pending window, which keeps its capacity. The
// index is a single tree on the snapshot path: a WITHIN that fans out over
// several shards allocates in the shard layer, which is not this budget.
// The second leg records every line in the slow-query log, which must
// cost no allocation either.
func TestServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates the query closures")
	}
	for _, slow := range []time.Duration{0, time.Nanosecond} {
		s := New(newTestIndex(), Options{FlushInterval: -1, MaxBatch: 1 << 20, SlowLog: slow})
		lc := s.NewLineConn()
		for i := 0; i < 64; i++ {
			lc.Serve([]byte(fmt.Sprintf(`{"op":"SET","id":"veh-%06d","p":[%d,%d]}`, i, 400+i, 500+i)))
		}
		lc.Serve([]byte(`{"op":"FLUSH"}`))
		for _, tc := range []struct {
			line   []byte
			budget float64
		}{
			{benchGET, 0}, {benchNEARBY, 0}, {benchWITHIN, 0}, {benchSET, 0}, {benchDEL, 0},
		} {
			lc.Serve(tc.line) // warm: scratch grown, ID in the pending window
			allocs := testing.AllocsPerRun(200, func() {
				if reply := lc.Serve(tc.line); reply[6] != 't' { // {"ok":true
					t.Fatalf("%s -> %s", tc.line, reply)
				}
			})
			if allocs > tc.budget {
				t.Errorf("slowlog %v: %s: %.2f allocs per served line, budget %v", slow, tc.line, allocs, tc.budget)
			}
		}
		if slow > 0 && s.slow.Total() == 0 {
			t.Errorf("slowlog %v recorded nothing", slow)
		}
	}
}

func BenchmarkParseRequest(b *testing.B) {
	for _, bc := range []struct {
		name string
		line []byte
	}{{"SET", benchSET}, {"GET", benchGET}, {"NEARBY", benchNEARBY}, {"WITHIN", benchWITHIN}} {
		b.Run(bc.name, func(b *testing.B) {
			var req Request
			b.ReportAllocs()
			for b.Loop() {
				if err := parseRequest(bc.line, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkServeSET(b *testing.B) {
	s := New(newTestIndex(), Options{FlushInterval: -1})
	lc := s.NewLineConn()
	b.ReportAllocs()
	for b.Loop() {
		lc.Serve(benchSET)
	}
}
