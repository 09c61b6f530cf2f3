package load

// Prometheus text-format parsing and histogram quantile estimation —
// the collector's half of the harness. The server's /metrics page is
// the single source of truth for latency: the harness never times
// requests client-side (that would fold its own scheduler jitter into
// the SLO), it reads the same cumulative `le` bucket series an
// operator's Prometheus would and interpolates quantiles from the
// run's bucket-count deltas.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed metric line: name, label set, value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed /metrics page.
type Scrape struct {
	Samples []Sample
}

// ParseMetrics parses a Prometheus text-format page. Comment and blank
// lines are skipped; a malformed sample line is an error (a truncated
// scrape must not silently read as a quiet server).
func ParseMetrics(r io.Reader) (*Scrape, error) {
	s := &Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		s.Samples = append(s.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSample parses `name{k="v",...} value [timestamp]`: the label block
// optional, empty or closed after a trailing comma, and a sample
// timestamp (integer milliseconds) accepted and ignored.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("load: malformed label in %q", line)
			}
			key := strings.TrimSpace(rest[:eq])
			val, n, err := scanQuoted(rest[eq+1:])
			if err != nil {
				return s, fmt.Errorf("load: %v in %q", err, line)
			}
			s.Labels[key] = val
			rest = strings.TrimLeft(rest[eq+1+n:], " \t")
			if !strings.HasPrefix(rest, ",") && !strings.HasPrefix(rest, "}") {
				return s, fmt.Errorf("load: labels not separated by a comma in %q", line)
			}
			rest = strings.TrimPrefix(rest, ",")
		}
	} else if i := strings.IndexAny(rest, " \t"); i >= 0 {
		s.Name = rest[:i]
		rest = rest[i:]
	} else {
		return s, fmt.Errorf("load: no value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("load: want a value and at most a timestamp in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("load: bad value in %q", line)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("load: bad timestamp in %q", line)
		}
	}
	s.Value = v
	return s, nil
}

// scanQuoted reads a double-quoted label value with \" and \\ escapes,
// returning the value and how many input bytes it consumed.
func scanQuoted(in string) (string, int, error) {
	if !strings.HasPrefix(in, `"`) {
		return "", 0, fmt.Errorf("label value not quoted")
	}
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch in[i] {
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("truncated escape")
			}
			i++
			switch in[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(in[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// matches reports whether the sample carries every given label pair.
func (s Sample) matches(name string, labels map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range labels {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the first sample matching name and the given label
// subset; ok=false when absent.
func (s *Scrape) Value(name string, labels map[string]string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.matches(name, labels) {
			return sm.Value, true
		}
	}
	return 0, false
}

// LabelValues lists the distinct values of one label across a family,
// sorted — how the report discovers which endpoints saw traffic.
func (s *Scrape) LabelValues(name, label string) []string {
	seen := map[string]bool{}
	for _, sm := range s.Samples {
		if sm.Name == name {
			if v, ok := sm.Labels[label]; ok && !seen[v] {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Bucket is one cumulative histogram bucket: the count of samples ≤ LE.
type Bucket struct {
	LE  float64 // upper bound in seconds; +Inf for the overflow bucket
	Cum float64 // cumulative count
}

// Histogram is one endpoint's latency histogram reconstructed from the
// scrape's `le` series.
type Histogram struct {
	Buckets []Bucket
	Count   float64
	Sum     float64
}

// Histogram extracts the histogram for family base (e.g.
// "memex_http_request_duration_seconds") restricted to the given label
// subset. Buckets come back sorted by bound; ok=false when the scrape
// has no such series. A bucket no latency histogram can hold — a bound
// that is not a number ≥ 0, a count that is not finite and ≥ 0 — is
// skipped, as an unparsable bound is.
func (s *Scrape) Histogram(base string, labels map[string]string) (Histogram, bool) {
	var h Histogram
	for _, sm := range s.Samples {
		switch sm.Name {
		case base + "_bucket":
			if !sm.matches(base+"_bucket", labels) {
				continue
			}
			le, err := parseLE(sm.Labels["le"])
			if err != nil || !(le >= 0) || !(sm.Value >= 0) || math.IsInf(sm.Value, 1) {
				continue
			}
			h.Buckets = append(h.Buckets, Bucket{LE: le, Cum: sm.Value})
		case base + "_count":
			if sm.matches(base+"_count", labels) {
				h.Count = sm.Value
			}
		case base + "_sum":
			if sm.matches(base+"_sum", labels) {
				h.Sum = sm.Value
			}
		}
	}
	if len(h.Buckets) == 0 {
		return Histogram{}, false
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].LE < h.Buckets[j].LE })
	return h, true
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Sub returns the histogram of samples recorded after prev: bucket-wise
// cumulative-count difference. Counters only move forward, so a
// negative delta means the server restarted mid-run — clamped to zero
// rather than poisoning the quantiles with wraparound.
func (h Histogram) Sub(prev Histogram) Histogram {
	out := Histogram{
		Buckets: make([]Bucket, len(h.Buckets)),
		Count:   math.Max(0, h.Count-prev.Count),
		Sum:     math.Max(0, h.Sum-prev.Sum),
	}
	prevAt := map[float64]float64{}
	for _, b := range prev.Buckets {
		prevAt[b.LE] = b.Cum
	}
	for i, b := range h.Buckets {
		out.Buckets[i] = Bucket{LE: b.LE, Cum: math.Max(0, b.Cum-prevAt[b.LE])}
	}
	return out
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in seconds from the
// cumulative bucket series, Prometheus-style: find the bucket the
// target rank lands in and interpolate linearly inside it. Mass in the
// +Inf overflow bucket clamps to the highest finite bound — the
// histogram genuinely cannot say more, and reporting +Inf would make
// every budget comparison meaningless. An empty histogram estimates 0;
// callers that care (the SLO gate does) must check Total themselves.
func (h Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if !(total > 0) || len(h.Buckets) == 0 {
		return 0
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range h.Buckets {
		if b.Cum >= rank {
			if math.IsInf(b.LE, 1) {
				return prevLE
			}
			in := b.Cum - prevCum
			if in <= 0 {
				return b.LE
			}
			// The fraction is at most 1 and the sum is capped at the
			// bound, so rounding cannot step past it.
			return math.Min(b.LE, prevLE+(b.LE-prevLE)*((rank-prevCum)/in))
		}
		if !math.IsInf(b.LE, 1) {
			prevLE = b.LE
		}
		prevCum = b.Cum
	}
	return prevLE
}

// Total is the sample count the bucket series accounts for (the last
// cumulative bucket; falls back to _count when buckets are absent).
func (h Histogram) Total() float64 {
	if n := len(h.Buckets); n > 0 {
		return h.Buckets[n-1].Cum
	}
	return h.Count
}
