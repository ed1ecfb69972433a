package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestLabels(t *testing.T) {
	if got := Labels("b", "2", "a", "1"); got != `a="1",b="2"` {
		t.Fatalf("Labels not sorted: %q", got)
	}
	if got := Labels("k", "a\\b\"c\nd"); got != `k="a\\b\"c\nd"` {
		t.Fatalf("Labels escaping: %q", got)
	}
	if got := Labels("bad.name", "v"); got != `bad_name="v"` {
		t.Fatalf("Labels sanitizing: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Labels with odd arguments did not panic")
		}
	}()
	Labels("only-key")
}

func TestFormatLe(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{1, "1.0"},
		{10, "10.0"},
		{1024, "1024.0"},
		{1 << 40, "1.099511627776e+12"},
	}
	for _, c := range cases {
		if got := formatLe(c.in); got != c.want {
			t.Errorf("formatLe(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// popRegistry fills a registry with every metric shape the exposition
// handles: plain and labeled counters/gauges, plain and labeled
// histograms, and a name needing sanitization.
func popRegistry() *Registry {
	r := NewRegistry()
	r.Counter("farm.chunks").Add(42)
	r.CounterWith("farm.dials", Labels("peer", "a:9666", "zone", "z3")).Add(3)
	r.Gauge("service.running").Set(2)
	r.GaugeWith("farm.conns", Labels("peer", "b:9666", "zone", "z1")).Add(1)
	h := r.Histogram("farm.rpc_ns", LatencyBounds())
	for i := uint64(1); i < 30; i++ {
		h.Observe(i * 100_000)
	}
	hl := r.Histogram(metricKey("farm.server.chunk_ns", Labels("zone", "z2")), ExpBounds(10, 2, 4))
	hl.Observe(5)
	hl.Observe(500)
	return r
}

func TestWriteOpenMetricsConformance(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, popRegistry()); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if err := ValidateOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, page)
	}
	for _, want := range []string{
		"# TYPE farm_chunks counter\n",
		"farm_chunks_total 42\n",
		`farm_dials_total{peer="a:9666",zone="z3"} 3`,
		`farm_conns{peer="b:9666",zone="z1"} 1`,
		"# TYPE farm_rpc_ns histogram\n",
		`farm_rpc_ns_bucket{le="+Inf"}`,
		"farm_rpc_ns_sum ",
		"farm_rpc_ns_count 29\n",
		`farm_server_chunk_ns_bucket{zone="z2",le="10.0"} 1`,
		"# TYPE ascdg_build_info gauge\n",
		"ascdg_build_info{",
		"# EOF\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition lacks %q\n%s", want, page)
		}
	}
	if !strings.HasSuffix(page, "# EOF\n") {
		t.Fatal("exposition does not end with # EOF")
	}
}

func TestWriteOpenMetricsNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateOpenMetrics(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ascdg_build_info") {
		t.Fatalf("nil-registry exposition lacks build_info:\n%s", buf.String())
	}
}

// TestWriteOpenMetricsDeterministic locks the page's byte-for-byte
// stability: same registry state, same output, regardless of map
// iteration order.
func TestWriteOpenMetricsDeterministic(t *testing.T) {
	r := popRegistry()
	var a, b bytes.Buffer
	if err := WriteOpenMetrics(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n----\n%s", a.String(), b.String())
	}
}

// TestRegistryConcurrentWriters hammers the registry from many
// goroutines while the exposition renders, then checks the final totals
// are exact — run under -race this also proves the snapshot path is
// data-race free.
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test.counter")
			lc := r.CounterWith("test.labeled", Labels("w", "shared"))
			h := r.Histogram("test.hist", ExpBounds(1, 2, 8))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				lc.Inc()
				h.Observe(uint64(i % 64))
			}
		}()
	}
	stop := make(chan struct{})
	var renders sync.WaitGroup
	renders.Add(1)
	go func() {
		defer renders.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := WriteOpenMetrics(&buf, r); err != nil {
					t.Error(err)
					return
				}
				if err := ValidateOpenMetrics(buf.Bytes()); err != nil {
					t.Errorf("mid-write exposition invalid: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	renders.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["test.counter"]; got != writers*perWriter {
		t.Fatalf("test.counter = %d, want %d", got, writers*perWriter)
	}
	if got := snap.Counters[`test.labeled{w="shared"}`]; got != writers*perWriter {
		t.Fatalf("test.labeled = %d, want %d", got, writers*perWriter)
	}
	if got := snap.Histograms["test.hist"].Count; got != writers*perWriter {
		t.Fatalf("test.hist count = %d, want %d", got, writers*perWriter)
	}
}

func TestValidateOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		page string
	}{
		{"no_eof", "# TYPE a counter\na_total 1\n"},
		{"content_after_eof", "# TYPE a counter\na_total 1\n# EOF\na_total 2\n# EOF\n"},
		{"empty_line", "# TYPE a counter\n\na_total 1\n# EOF\n"},
		{"sample_before_type", "a_total 1\n# EOF\n"},
		{"counter_without_total", "# TYPE a counter\na 1\n# EOF\n"},
		{"duplicate_type", "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n"},
		{"unsupported_type", "# TYPE a summary\na 1\n# EOF\n"},
		{"interleaved_families", "# TYPE a counter\n# TYPE b counter\na_total 1\n# EOF\n"},
		{"duplicate_series", "# TYPE a counter\na_total 1\na_total 2\n# EOF\n"},
		{"negative_counter", "# TYPE a counter\na_total -1\n# EOF\n"},
		{"timestamped_sample", "# TYPE a counter\na_total 1 123456\n# EOF\n"},
		{"unquoted_label", "# TYPE a counter\na_total{x=1} 1\n# EOF\n"},
		{"bad_escape", "# TYPE a counter\na_total{x=\"\\t\"} 1\n# EOF\n"},
		{"duplicate_label", "# TYPE a counter\na_total{x=\"1\",x=\"2\"} 1\n# EOF\n"},
		{"nan_value", "# TYPE a gauge\na NaN\n# EOF\n"},
		{"hist_no_inf", "# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\nh_sum 1\nh_count 1\n# EOF\n"},
		{"hist_not_cumulative", "# TYPE h histogram\nh_bucket{le=\"1.0\"} 5\nh_bucket{le=\"2.0\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n# EOF\n"},
		{"hist_bounds_not_increasing", "# TYPE h histogram\nh_bucket{le=\"2.0\"} 1\nh_bucket{le=\"1.0\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n# EOF\n"},
		{"hist_count_mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n# EOF\n"},
		{"hist_missing_sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n# EOF\n"},
		{"hist_finite_after_inf", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_bucket{le=\"1.0\"} 1\nh_sum 1\nh_count 2\n# EOF\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateOpenMetrics([]byte(tc.page)); err == nil {
				t.Fatalf("validator accepted %s:\n%s", tc.name, tc.page)
			}
		})
	}
	good := "# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# TYPE ok counter\nok_total 1\n# EOF\n"
	if err := ValidateOpenMetrics([]byte(good)); err != nil {
		t.Fatalf("validator rejected a valid page: %v", err)
	}
}
