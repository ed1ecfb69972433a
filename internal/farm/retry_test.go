package farm

import (
	"math"
	"testing"
	"time"
)

func TestApplyRetrySpec(t *testing.T) {
	t.Run("empty is a no-op", func(t *testing.T) {
		o := Options{Attempts: 7}
		if err := o.ApplyRetrySpec("  "); err != nil {
			t.Fatalf("ApplyRetrySpec(empty) = %v", err)
		}
		if o.Attempts != 7 {
			t.Fatalf("empty spec mutated options: %+v", o)
		}
	})

	t.Run("full spec", func(t *testing.T) {
		var o Options
		if err := o.ApplyRetrySpec("base=5ms, cap=100ms ,attempts=7,jitter=0.5"); err != nil {
			t.Fatalf("ApplyRetrySpec = %v", err)
		}
		if o.BackoffBase != 5*time.Millisecond || o.BackoffMax != 100*time.Millisecond ||
			o.Attempts != 7 || o.BackoffJitter != 0.5 {
			t.Fatalf("parsed options = %+v", o)
		}
	})

	t.Run("partial spec keeps other defaults", func(t *testing.T) {
		var o Options
		if err := o.ApplyRetrySpec("attempts=2"); err != nil {
			t.Fatalf("ApplyRetrySpec = %v", err)
		}
		o.setDefaults()
		if o.Attempts != 2 || o.BackoffBase != 50*time.Millisecond || o.BackoffMax != 2*time.Second {
			t.Fatalf("partial spec options = %+v", o)
		}
	})

	t.Run("explicit zero jitter disables", func(t *testing.T) {
		var o Options
		if err := o.ApplyRetrySpec("jitter=0"); err != nil {
			t.Fatalf("ApplyRetrySpec = %v", err)
		}
		// 0 would re-select the 0.25 default in setDefaults, so the
		// parser stores the -1 disable sentinel instead.
		if o.BackoffJitter != -1 {
			t.Fatalf("jitter=0 stored %v, want -1 sentinel", o.BackoffJitter)
		}
		o.setDefaults()
		if got := o.jitter(); got != 0 {
			t.Fatalf("effective jitter = %v, want 0", got)
		}
	})

	t.Run("bad specs leave options unchanged", func(t *testing.T) {
		bad := []string{
			"base",           // no =
			"base=",          // empty value
			"base=banana",    // not a duration
			"base=-5ms",      // negative
			"attempts=0",     // below 1
			"attempts=two",   // not an integer
			"jitter=1.5",     // above 1
			"jitter=-0.1",    // below 0
			"volume=11",      // unknown key
			"base=3s,cap=1s", // base exceeds cap
		}
		for _, spec := range bad {
			o := Options{Attempts: 9, BackoffBase: time.Second}
			if err := o.ApplyRetrySpec(spec); err == nil {
				t.Errorf("ApplyRetrySpec(%q) accepted a bad spec", spec)
			}
			if o.Attempts != 9 || o.BackoffBase != time.Second {
				t.Errorf("ApplyRetrySpec(%q) mutated options on error: %+v", spec, o)
			}
		}
	})
}

func TestRetryString(t *testing.T) {
	if got, want := (Options{}).RetryString(), "base=50ms,cap=2s,attempts=3,jitter=0.25"; got != want {
		t.Fatalf("default RetryString = %q, want %q", got, want)
	}
	var o Options
	if err := o.ApplyRetrySpec("base=5ms,cap=100ms,attempts=7,jitter=0"); err != nil {
		t.Fatalf("ApplyRetrySpec = %v", err)
	}
	if got, want := o.RetryString(), "base=5ms,cap=100ms,attempts=7,jitter=0"; got != want {
		t.Fatalf("RetryString = %q, want %q", got, want)
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		hedge, audit float64
		ok           bool
	}{
		{0, 0, true},
		{2, 0.5, true},
		{1e30, 1, true}, // finite: hedgeBudget saturates
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{-1, 0, false},
		{0, math.NaN(), false},
		{0, 2, false},
		{0, -0.5, false},
	} {
		o := Options{Hedge: tc.hedge, AuditFraction: tc.audit}
		if err := o.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(hedge %v, audit fraction %v) = %v, want ok %v", tc.hedge, tc.audit, err, tc.ok)
		}
	}
}
