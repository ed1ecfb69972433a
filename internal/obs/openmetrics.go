package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// This file is the OpenMetrics text exposition (the format Prometheus
// scrapes): WriteOpenMetrics renders a Registry snapshot, and Labels
// builds canonical label sets for the *With registry lookups. The strict
// conformance checker the tests run against every /metrics endpoint is
// obstest.ValidateOpenMetrics.
//
// Internal metric names use dots ("farm.rpc_ns"); the exposition maps
// every character outside [a-zA-Z0-9_:] to '_' ("farm_rpc_ns").
// Counters gain the mandated "_total" suffix, histograms expand into
// cumulative "_bucket{le=...}" series plus "_sum"/"_count", and every
// page carries an ascdg_build_info gauge and ends with "# EOF".

// Labels renders a canonical OpenMetrics label set from key/value
// pairs: sorted by key, values escaped, rendered as k="v",k2="v2".
// It panics on an odd number of arguments (a programming error).
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs.Labels: odd number of key/value arguments")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{sanitizeLabelName(kv[i]), kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeMetricName maps an internal metric name onto the OpenMetrics
// charset: [a-zA-Z_:][a-zA-Z0-9_:]*, with '.' and any other byte
// outside it becoming '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func sanitizeLabelName(name string) string {
	s := sanitizeMetricName(name)
	return strings.ReplaceAll(s, ":", "_")
}

// OpenMetricsContentType is the content type of the exposition,
// advertised by the /metrics endpoints.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// formatLe renders a histogram bucket bound as a canonical OpenMetrics
// float: integral values carry a ".0" suffix (10.0, not 10).
func formatLe(bound uint64) string {
	s := strconv.FormatFloat(float64(bound), 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

type omSample struct {
	suffix string // appended to the family name ("_total", "_bucket", ...)
	labels string
	value  string
}

type omFamily struct {
	name    string
	typ     string
	samples []omSample
}

// WriteOpenMetrics renders a point-in-time snapshot of the registry in
// the OpenMetrics text format, including the ascdg_build_info gauge and
// the terminating "# EOF" line. A nil registry renders build_info only
// — a valid, nearly empty page — so endpoints need no nil branches.
func WriteOpenMetrics(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	families := map[string]*omFamily{}
	add := func(key, typ, suffix, value string) {
		name, labels := splitMetricKey(key)
		name = sanitizeMetricName(name)
		f, ok := families[name]
		if !ok {
			f = &omFamily{name: name, typ: typ}
			families[name] = f
		}
		f.samples = append(f.samples, omSample{suffix: suffix, labels: labels, value: value})
	}
	for key, v := range snap.Counters {
		add(key, "counter", "_total", strconv.FormatUint(v, 10))
	}
	for key, v := range snap.Gauges {
		add(key, "gauge", "", strconv.FormatInt(v, 10))
	}
	for key, hs := range snap.Histograms {
		name, labels := splitMetricKey(key)
		name = sanitizeMetricName(name)
		f, ok := families[name]
		if !ok {
			f = &omFamily{name: name, typ: "histogram"}
			families[name] = f
		}
		cum := uint64(0)
		for i, b := range hs.Buckets {
			cum += b
			le := "+Inf"
			if i < len(hs.Bounds) {
				le = formatLe(hs.Bounds[i])
			}
			bl := `le="` + le + `"`
			if labels != "" {
				bl = labels + "," + bl
			}
			f.samples = append(f.samples, omSample{suffix: "_bucket", labels: bl,
				value: strconv.FormatUint(cum, 10)})
		}
		// _count is the +Inf cumulative, not hs.Count: the snapshot copies
		// buckets and count with separate atomic loads, so under concurrent
		// Observe calls only the bucket-derived total is guaranteed
		// consistent with the buckets on the same page.
		f.samples = append(f.samples,
			omSample{suffix: "_sum", labels: labels, value: strconv.FormatUint(hs.Sum, 10)},
			omSample{suffix: "_count", labels: labels, value: strconv.FormatUint(cum, 10)})
	}

	bi := buildinfo.Read()
	add("ascdg_build_info", "gauge", "", "1")
	f := families["ascdg_build_info"]
	f.samples[len(f.samples)-1].labels = Labels(
		"version", bi.Version,
		"revision", bi.Revision,
		"goversion", bi.GoVersion,
	)

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := families[n]
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		// Histogram sample order (buckets, sum, count per series) is
		// already structural; for flat families sort by labels so the
		// page is deterministic run to run.
		if f.typ != "histogram" {
			sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		}
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			if s.labels != "" {
				b.WriteByte('{')
				b.WriteString(s.labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(s.value)
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}
