// Package obs is the observability layer of the AS-CDG reproduction:
// a lock-free metrics registry (atomic counters, gauges, and bounded
// histograms), span-based tracing exported as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing), a structured JSONL
// progress stream, an OpenMetrics exposition, and a debug HTTP endpoint
// (pprof plus the /metrics, /healthz and /readyz ops endpoints).
//
// Every instrumentation entry point is nil-safe: a nil *Recorder, nil
// *Counter, nil *Gauge, nil *Histogram, nil *Span, and nil *Phase are
// all valid no-op receivers, so instrumented code carries no
// conditionals and a disabled run pays only a nil check per event.
// Instrumentation is purely observational — it never touches RNG
// streams, merge orders, or scheduling decisions — so aggregates are
// bit-identical with observability on or off, at any worker count.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that may move both ways
// (queue depths, in-flight jobs). A nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded, lock-free histogram over uint64 observations
// (latencies in nanoseconds, chunk sizes). Bucket i counts observations
// <= bounds[i]; one implicit overflow bucket catches the rest, so the
// memory footprint is fixed at creation no matter how many observations
// arrive. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []uint64 // ascending upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// newHistogram builds a histogram with the given ascending upper
// bounds (plus the implicit overflow bucket).
func newHistogram(bounds []uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]) from the bucket counts: the bound of the bucket the quantile
// falls in, or the observed maximum for the overflow bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count  uint64
	Sum    uint64
	Max    uint64
	Bounds []uint64
	// Buckets has len(Bounds)+1 entries; the last is the overflow.
	Buckets []uint64
}

// ExpBounds returns n exponentially spaced bounds start, start*factor,
// start*factor^2, ... — the standard shape for latency and size
// histograms.
func ExpBounds(start uint64, factor float64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	bounds := make([]uint64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		bounds = append(bounds, uint64(v))
		v *= factor
	}
	return bounds
}

// LatencyBounds is the default nanosecond latency bucket layout:
// 1us .. ~16s in powers of two.
func LatencyBounds() []uint64 { return ExpBounds(1000, 2, 24) }

// SizeBounds is the default size/count bucket layout: 1 .. 2^19 in
// powers of two.
func SizeBounds() []uint64 { return ExpBounds(1, 2, 20) }

// Registry is a named collection of metrics. Registration (the Counter
// / Gauge / Histogram lookups) takes a mutex and should happen once per
// call site — instrumented hot paths hold on to the returned handle and
// then update it lock-free. A nil *Registry returns nil (no-op) metric
// handles, so call sites need no branches.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls with different bounds return the
// original histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterWith returns the counter for name with the given label set
// (rendered by Labels). Labeled series live in the registry under the
// composite key "name{k=\"v\",...}"; Snapshot and Format keep that key,
// and the OpenMetrics exposition splits it back into a family plus
// labels. An empty labels string is the plain unlabeled series.
func (r *Registry) CounterWith(name, labels string) *Counter {
	return r.Counter(metricKey(name, labels))
}

// GaugeWith returns the gauge for name with the given label set.
func (r *Registry) GaugeWith(name, labels string) *Gauge {
	return r.Gauge(metricKey(name, labels))
}

func metricKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// splitMetricKey splits a registry key into its family name and label
// part ("" when unlabeled).
func splitMetricKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// Snapshot is a point-in-time copy of every metric in a registry, the
// one read that the -metrics dump and the OpenMetrics page render.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Max:    h.max.Load(),
			Bounds: append([]uint64(nil), h.bounds...),
		}
		hs.Buckets = make([]uint64, len(h.buckets))
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// Format renders the registry as an aligned, sorted text summary — the
// CLIs' -metrics final dump.
func (r *Registry) Format() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	var b strings.Builder
	b.WriteString("metrics summary\n")
	writeSection := func(title string, names []string, line func(name string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, n := range names {
			line(n)
		}
	}
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	writeSection("counters", names, func(n string) {
		fmt.Fprintf(&b, "  %-36s %12d\n", n, snap.Counters[n])
	})
	names = nil
	for n := range snap.Gauges {
		names = append(names, n)
	}
	writeSection("gauges", names, func(n string) {
		fmt.Fprintf(&b, "  %-36s %12d\n", n, snap.Gauges[n])
	})
	names = nil
	for n := range snap.Histograms {
		names = append(names, n)
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	writeSection("histograms", names, func(n string) {
		hs := snap.Histograms[n]
		h := hists[n]
		mean := uint64(0)
		if hs.Count > 0 {
			mean = hs.Sum / hs.Count
		}
		fmt.Fprintf(&b, "  %-36s count=%d mean=%d p50=%d p90=%d p99=%d max=%d\n",
			n, hs.Count, mean, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), hs.Max)
	})
	return b.String()
}
