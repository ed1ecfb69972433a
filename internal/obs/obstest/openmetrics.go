// Package obstest holds the checks tests run on what internal/obs
// exposes: ValidateOpenMetrics, a strict parser of the OpenMetrics text
// that obs.WriteOpenMetrics renders and every /metrics endpoint serves.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	omMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	omLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type omSeries struct {
	name   string
	labels map[string]string
}

// parseOMSample parses one exposition sample line into its series and
// value. It enforces label syntax (quoting, escapes, separators).
func parseOMSample(line string) (omSeries, float64, error) {
	s := omSeries{labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		nameEnd = sp
	} else {
		return s, 0, fmt.Errorf("no value on sample line")
	}
	s.name = rest[:nameEnd]
	if !omMetricName.MatchString(s.name) {
		return s, 0, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		rest = rest[1:] // consume '{'
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, 0, fmt.Errorf("label without '='")
			}
			lname := rest[:eq]
			if !omLabelName.MatchString(lname) {
				return s, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return s, 0, fmt.Errorf("unquoted label value for %q", lname)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' {
					if i+1 >= len(rest) {
						return s, 0, fmt.Errorf("dangling escape in label value")
					}
					i++
					switch rest[i] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, 0, fmt.Errorf("invalid escape \\%c", rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, 0, fmt.Errorf("unterminated label value for %q", lname)
			}
			if _, dup := s.labels[lname]; dup {
				return s, 0, fmt.Errorf("duplicate label %q", lname)
			}
			s.labels[lname] = val.String()
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if len(rest) > 0 && rest[0] == '}' {
				rest = rest[1:]
				break
			}
			return s, 0, fmt.Errorf("malformed label separator")
		}
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return s, 0, fmt.Errorf("missing space before value")
	}
	valueStr := rest[1:]
	if valueStr == "" || strings.ContainsAny(valueStr, " \t") {
		return s, 0, fmt.Errorf("malformed value %q (timestamps are not accepted)", valueStr)
	}
	v, err := parseOMFloat(valueStr)
	if err != nil {
		return s, 0, err
	}
	return s, v, nil
}

func parseOMFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf", "NaN":
		return 0, fmt.Errorf("value %q not produced by this exposition", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", s)
	}
	return v, nil
}

func seriesKey(s omSeries, drop string) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, s.labels[k])
	}
	return b.String()
}

type omHistState struct {
	lastLe  float64
	lastCum float64
	haveLe  bool
	infCum  float64
	haveInf bool
	count   float64
	haveCnt bool
	haveSum bool
}

// ValidateOpenMetrics is a strict structural validator for the subset
// of the OpenMetrics text format obs.WriteOpenMetrics emits: TYPE-declared
// counter/gauge/histogram/info families, no interleaving, "_total"
// counters, cumulative non-decreasing histogram buckets ending in
// le="+Inf" with _count equal to the +Inf bucket, no duplicate series,
// and a final "# EOF\n". The conformance tests scrape each /metrics
// endpoint and run its body through here.
func ValidateOpenMetrics(data []byte) error {
	text := string(data)
	if !strings.HasSuffix(text, "# EOF\n") {
		return fmt.Errorf("openmetrics: exposition must end with %q", "# EOF\n")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	types := map[string]string{} // family -> type
	seen := map[string]bool{}    // full series key incl. le -> present
	hists := map[string]*omHistState{}
	var curFamily, curType string
	sawEOF := false
	for ln, line := range lines {
		if sawEOF {
			return fmt.Errorf("openmetrics: line %d: content after # EOF", ln+1)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if line == "" {
			return fmt.Errorf("openmetrics: line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return fmt.Errorf("openmetrics: line %d: malformed comment %q", ln+1, line)
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return fmt.Errorf("openmetrics: line %d: malformed TYPE line", ln+1)
				}
				name, typ := fields[2], fields[3]
				if !omMetricName.MatchString(name) {
					return fmt.Errorf("openmetrics: line %d: invalid family name %q", ln+1, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "info":
				default:
					return fmt.Errorf("openmetrics: line %d: unsupported type %q", ln+1, typ)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("openmetrics: line %d: duplicate TYPE for %q", ln+1, name)
				}
				types[name] = typ
				curFamily, curType = name, typ
			case "HELP", "UNIT":
				if fields[2] != curFamily {
					return fmt.Errorf("openmetrics: line %d: %s for %q outside its family block", ln+1, fields[1], fields[2])
				}
			default:
				return fmt.Errorf("openmetrics: line %d: unknown comment keyword %q", ln+1, fields[1])
			}
			continue
		}
		s, v, err := parseOMSample(line)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", ln+1, err)
		}
		if curFamily == "" {
			return fmt.Errorf("openmetrics: line %d: sample %q before any TYPE declaration", ln+1, s.name)
		}
		var base, suffix string
		switch curType {
		case "counter":
			if !strings.HasSuffix(s.name, "_total") {
				return fmt.Errorf("openmetrics: line %d: counter sample %q lacks _total", ln+1, s.name)
			}
			base, suffix = strings.TrimSuffix(s.name, "_total"), "_total"
		case "gauge":
			base = s.name
		case "info":
			if !strings.HasSuffix(s.name, "_info") {
				return fmt.Errorf("openmetrics: line %d: info sample %q lacks _info", ln+1, s.name)
			}
			base = strings.TrimSuffix(s.name, "_info")
		case "histogram":
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(s.name, suf) {
					base, suffix = strings.TrimSuffix(s.name, suf), suf
					break
				}
			}
			if base == "" {
				return fmt.Errorf("openmetrics: line %d: histogram sample %q has no bucket/sum/count suffix", ln+1, s.name)
			}
		}
		if base != curFamily {
			return fmt.Errorf("openmetrics: line %d: sample %q interleaves into family %q", ln+1, s.name, curFamily)
		}
		full := seriesKey(s, "") + "|..suffix=" + suffix
		if seen[full] {
			return fmt.Errorf("openmetrics: line %d: duplicate series %q", ln+1, line)
		}
		seen[full] = true
		if v < 0 && curType != "gauge" {
			return fmt.Errorf("openmetrics: line %d: negative %s value", ln+1, curType)
		}
		if curType != "histogram" {
			continue
		}
		// Group the histogram's series by base name (the _bucket/_sum/
		// _count suffixes all belong to one histogram) and labels minus le.
		base2 := s
		base2.name = base
		group := seriesKey(base2, "le")
		st, ok := hists[group]
		if !ok {
			st = &omHistState{}
			hists[group] = st
		}
		switch suffix {
		case "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("openmetrics: line %d: bucket without le label", ln+1)
			}
			leV := 0.0
			if le == "+Inf" {
				st.haveInf = true
				st.infCum = v
				leV = math.Inf(1)
			} else if leV, err = strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("openmetrics: line %d: invalid le %q", ln+1, le)
			} else if st.haveInf {
				return fmt.Errorf("openmetrics: line %d: finite bucket after +Inf", ln+1)
			}
			if st.haveLe && leV <= st.lastLe {
				return fmt.Errorf("openmetrics: line %d: bucket bounds not increasing", ln+1)
			}
			if st.haveLe && v < st.lastCum {
				return fmt.Errorf("openmetrics: line %d: bucket counts not cumulative", ln+1)
			}
			st.haveLe, st.lastLe, st.lastCum = true, leV, v
		case "_sum":
			st.haveSum = true
		case "_count":
			st.haveCnt = true
			st.count = v
		}
	}
	if !sawEOF {
		return fmt.Errorf("openmetrics: missing # EOF line")
	}
	for group, st := range hists {
		if !st.haveInf {
			return fmt.Errorf("openmetrics: histogram %q has no +Inf bucket", group)
		}
		if !st.haveSum || !st.haveCnt {
			return fmt.Errorf("openmetrics: histogram %q missing _sum or _count", group)
		}
		if st.count != st.infCum {
			return fmt.Errorf("openmetrics: histogram %q: _count %g != +Inf bucket %g", group, st.count, st.infCum)
		}
	}
	return nil
}
