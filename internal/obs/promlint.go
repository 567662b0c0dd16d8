package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text-format exposition; see Scrape.
func Lint(r io.Reader) error {
	_, err := Scrape(r)
	return err
}

// Scrape parses and validates a Prometheus text-format exposition and
// returns every sample it accepted, keyed "name" for an unlabeled series
// and "name{labels}" (the label body as written) otherwise. Validation
// covers comment structure, metric-name and label syntax, parseable sample
// values, TYPE declarations preceding their samples, counters holding
// finite non-negative integers, and histogram invariants (every _bucket
// series carries an le label, bucket and _count values are counts,
// cumulative bucket counts are non-decreasing in le, the series ends at
// "+Inf", and _count exists exactly when buckets do and matches the +Inf
// bucket). It is the parser behind the CI gate that scrapes /metricsz and
// behind loadgen's end-of-run counters, so it errs on the strict side; the
// first violation is returned with its line number.
func Scrape(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	types := map[string]string{} // metric name -> declared type
	out := map[string]float64{}  // accepted series -> value
	type histState struct {
		lastLe  float64
		lastCum float64
		infSeen bool
		infVal  float64
	}
	hists := map[string]*histState{} // name{labels-sans-le} -> bucket walk
	counts := map[string]float64{}   // histogram base+labels -> _count value

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := lintComment(line, types); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		series := name
		if labels != "" {
			series += "{" + labels + "}"
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		out[series] = value

		base, suffix := splitSuffix(name)
		if types[base] == "histogram" && suffix != "" {
			key := base + "{" + stripLabel(labels, "le") + "}"
			if suffix != "_sum" && !isCount(value) {
				return nil, fmt.Errorf("line %d: %s value %v not a non-negative integer", lineNo, name, value)
			}
			switch suffix {
			case "_bucket":
				le, ok := labelValue(labels, "le")
				if !ok {
					return nil, fmt.Errorf("line %d: %s series missing le label", lineNo, name)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil || math.IsInf(bound, 0) || math.IsNaN(bound) {
						return nil, fmt.Errorf("line %d: bad le %q", lineNo, le)
					}
				}
				h := hists[key]
				if h == nil {
					h = &histState{lastLe: math.Inf(-1)}
					hists[key] = h
				}
				if bound <= h.lastLe {
					return nil, fmt.Errorf("line %d: %s le %q not increasing", lineNo, name, le)
				}
				if value < h.lastCum {
					return nil, fmt.Errorf("line %d: %s cumulative count decreased at le %q", lineNo, name, le)
				}
				h.lastLe, h.lastCum = bound, value
				if math.IsInf(bound, 1) {
					h.infSeen, h.infVal = true, value
				}
			case "_count":
				counts[key] = value
			}
		} else if _, ok := types[name]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding TYPE declaration", lineNo, name)
		}
		if types[name] == "counter" && !isCount(value) {
			return nil, fmt.Errorf("line %d: counter %s value %v not a non-negative integer", lineNo, name, value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, h := range hists {
		if !h.infSeen {
			return nil, fmt.Errorf("histogram %s has no +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok {
			return nil, fmt.Errorf("histogram %s has no _count series", key)
		} else if c != h.infVal {
			return nil, fmt.Errorf("histogram %s _count %v != +Inf bucket %v", key, c, h.infVal)
		}
	}
	for key := range counts {
		if hists[key] == nil {
			return nil, fmt.Errorf("histogram %s has a _count but no buckets", key)
		}
	}
	return out, nil
}

// isCount reports whether v is a finite non-negative integer, the only
// legal value of a counter sample or a histogram bucket or count.
func isCount(v float64) bool {
	return v >= 0 && v == math.Trunc(v) && !math.IsInf(v, 1)
}

func lintComment(line string, types map[string]string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "#" {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment")
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment")
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		types[fields[2]] = fields[3]
	}
	return nil
}

// parseSample splits "name{labels} value" (labels optional) and validates
// each piece.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label set")
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		if err := lintLabels(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample missing value")
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	valueField, ts, hasTS := strings.Cut(rest, " ") // optional timestamp after the value
	value, err = strconv.ParseFloat(valueField, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q", valueField)
	}
	if _, err := strconv.ParseInt(ts, 10, 64); hasTS && err != nil {
		return "", "", 0, fmt.Errorf("bad sample timestamp %q", ts)
	}
	return name, labels, value, nil
}

// lintLabels validates a comma-separated label body: name="quoted value"
// pairs with valid label names and closed quotes.
func lintLabels(body string) error {
	for _, pair := range splitLabels(body) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return fmt.Errorf("label %q missing =", pair)
		}
		lname := pair[:eq]
		if !validLabelName(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		v := pair[eq+1:]
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label %s value not quoted", lname)
		}
	}
	return nil
}

// splitLabels splits on commas outside quotes.
func splitLabels(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// labelValue extracts one (unescaped) label value from a label body.
func labelValue(body, name string) (string, bool) {
	for _, pair := range splitLabels(body) {
		if v, ok := strings.CutPrefix(pair, name+"="); ok {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// stripLabel removes one label pair from a label body, canonicalising the
// series key used to group histogram buckets.
func stripLabel(body, name string) string {
	var kept []string
	for _, pair := range splitLabels(body) {
		if !strings.HasPrefix(pair, name+"=") {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

func splitSuffix(name string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, s); ok {
			return b, s
		}
	}
	return name, ""
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
