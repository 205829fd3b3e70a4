package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE lines per family, then one
// line per series, with histograms expanded into cumulative _bucket
// series plus _sum and _count. Families and series appear in
// registration order, so the output is deterministic — the golden test
// pins it. Exposition reads the atomics directly; series recorded
// concurrently may be mutually torn by at most the in-flight updates,
// which is the usual Prometheus scrape semantics.

// histLe holds the precomputed le label values: bucket i of a Hist
// counts v with 2^i <= v < 2^(i+1), so its inclusive upper bound is
// 2^(i+1)-1; the last bucket is unbounded and folds into +Inf.
var histLe = func() [histBuckets - 1]string {
	var out [histBuckets - 1]string
	for i := range out {
		out[i] = strconv.FormatUint(uint64(1)<<(i+1)-1, 10)
	}
	return out
}()

// WritePrometheus writes the full exposition to w (the /metrics
// endpoint). The nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 16<<10)
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind.String())
		for _, s := range f.series {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(bw *bufio.Writer, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		v := s.counter.Load()
		if s.counterFn != nil {
			v = s.counterFn()
		}
		writeName(bw, f.name, s.labels, "")
		fmt.Fprintf(bw, " %d\n", v)
	case kindGauge:
		writeName(bw, f.name, s.labels, "")
		fmt.Fprintf(bw, " %s\n", strconv.FormatFloat(s.gaugeFn(), 'g', -1, 64))
	case kindHist:
		var cum uint64
		for i := range histLe {
			cum += s.hist.buckets[i].Load()
			writeName(bw, f.name+"_bucket", s.labels, histLe[i])
			fmt.Fprintf(bw, " %d\n", cum)
		}
		cum += s.hist.buckets[histBuckets-1].Load()
		writeName(bw, f.name+"_bucket", s.labels, "+Inf")
		fmt.Fprintf(bw, " %d\n", cum)
		writeName(bw, f.name+"_sum", s.labels, "")
		fmt.Fprintf(bw, " %d\n", s.hist.sum.Load())
		writeName(bw, f.name+"_count", s.labels, "")
		fmt.Fprintf(bw, " %d\n", s.hist.count.Load())
	}
}

// writeName writes `name{labels,le="le"}`, omitting the braces when both
// labels and le are empty.
func writeName(bw *bufio.Writer, name, labels, le string) {
	bw.WriteString(name)
	if labels == "" && le == "" {
		return
	}
	bw.WriteByte('{')
	bw.WriteString(labels)
	if le != "" {
		if labels != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// renderLabels pre-renders a label set as `k1="v1",k2="v2"` with values
// escaped per the exposition format (backslash, double quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(h[i])
		}
	}
	return b.String()
}

// ParseText parses a Prometheus text exposition into a flat map from
// series key — `name` or `name{labels}` exactly as exposed — to value.
// It understands the subset WritePrometheus emits (no timestamps,
// values parseable by strconv.ParseFloat) plus comment and blank lines,
// which is all a test needs to read a scrape of a psid.
// Label values containing a space before the final value separator are
// not supported.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
