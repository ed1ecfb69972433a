package service

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestFairSchedWeightedShare: under a saturated queue, dispatch counts
// track configured weights exactly (stride scheduling is deterministic,
// not probabilistic).
func TestFairSchedWeightedShare(t *testing.T) {
	f := newFairSched(map[string]float64{"a": 3, "b": 1})
	for i := 0; i < 40; i++ {
		f.push("a", fmt.Sprintf("a%02d", i))
		f.push("b", fmt.Sprintf("b%02d", i))
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		_, tenant, ok := f.pop()
		if !ok {
			t.Fatal("pop failed with campaigns queued")
		}
		counts[tenant]++
	}
	if counts["a"] != 30 || counts["b"] != 10 {
		t.Fatalf("40 dispatches split %v, want a:30 b:10 (weights 3:1)", counts)
	}
}

// TestFairSchedFIFOWithinTenant: a tenant's own campaigns keep
// submission order.
func TestFairSchedFIFOWithinTenant(t *testing.T) {
	f := newFairSched(nil)
	f.push("a", "a1")
	f.push("a", "a2")
	f.push("a", "a3")
	for _, want := range []string{"a1", "a2", "a3"} {
		id, _, ok := f.pop()
		if !ok || id != want {
			t.Fatalf("pop = %q ok=%v, want %q", id, ok, want)
		}
	}
}

// TestFairSchedIdleTenantBanksNoCredit: a tenant that idles while
// another works does not get to monopolize the scheduler when it
// returns — it re-enters at the current clock.
func TestFairSchedIdleTenantBanksNoCredit(t *testing.T) {
	f := newFairSched(nil)
	for i := 0; i < 10; i++ {
		f.push("busy", fmt.Sprintf("x%02d", i))
	}
	for i := 0; i < 8; i++ {
		f.pop()
	}
	// "fresh" arrives late; with equal weights the remaining dispatches
	// must alternate rather than draining fresh's backlog first.
	for i := 0; i < 4; i++ {
		f.push("fresh", fmt.Sprintf("f%02d", i))
	}
	counts := map[string]int{}
	for i := 0; i < 4; i++ {
		_, tenant, ok := f.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		counts[tenant]++
	}
	if counts["busy"] != 2 || counts["fresh"] != 2 {
		t.Fatalf("post-idle dispatches split %v, want busy:2 fresh:2", counts)
	}
}

// TestFairSchedSoloTenantGetsEverything: weights only matter under
// contention.
func TestFairSchedSoloTenantGetsEverything(t *testing.T) {
	f := newFairSched(map[string]float64{"a": 1, "b": 100})
	for i := 0; i < 5; i++ {
		f.push("a", fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 5; i++ {
		if _, tenant, ok := f.pop(); !ok || tenant != "a" {
			t.Fatalf("pop %d = tenant %q ok=%v", i, tenant, ok)
		}
	}
	if _, _, ok := f.pop(); ok {
		t.Fatal("pop succeeded on an empty scheduler")
	}
}

func TestFairSchedRemove(t *testing.T) {
	f := newFairSched(nil)
	f.push("a", "a1")
	f.push("a", "a2")
	if !f.remove("a1") {
		t.Fatal("remove of queued campaign failed")
	}
	if f.remove("a1") {
		t.Fatal("second remove succeeded")
	}
	if f.len() != 1 {
		t.Fatalf("len = %d, want 1", f.len())
	}
	id, _, _ := f.pop()
	if id != "a2" {
		t.Fatalf("pop = %q, want a2", id)
	}
}

// TestParseTenantWeights: cdgd's -tenant-weights accepts finite positive weights with a finite reciprocal only. NaN
// used to weigh 1 silently, +Inf starved every other tenant and broke
// GET /v1/scheduler's JSON, and so did a subnormal weight, whose
// reciprocal moved the scheduler clock to +Inf.
func TestParseTenantWeights(t *testing.T) {
	for _, row := range []struct {
		in   string
		want map[string]float64
		ok   bool
	}{
		{"", nil, true},
		{"paid=3,free=1", map[string]float64{"paid": 3, "free": 1}, true},
		{" paid=0.5 , free=2", map[string]float64{"paid": 0.5, "free": 2}, true},
		{"paid=NaN", nil, false},
		{"paid=nan", nil, false},
		{"paid=Inf", nil, false},
		{"paid=+Inf", nil, false},
		{"paid=-Inf", nil, false},
		{"paid=1e400", nil, false},
		{"paid=0", nil, false},
		{"paid=-1", nil, false},
		{"x=1e-320", nil, false},
		{"x=4e-309", nil, false},
		{"x=6e-309", map[string]float64{"x": 6e-309}, true}, // 1/x is about 1.7e308
		{"paid", nil, false},
		{"=3", nil, false},
		{"paid=x", nil, false},
		{"paid=3,", nil, false},
	} {
		got, err := ParseTenantWeights(row.in)
		if (err == nil) != row.ok {
			t.Errorf("ParseTenantWeights(%q) err = %v, want ok=%v", row.in, err, row.ok)
			continue
		}
		if len(got) != len(row.want) {
			t.Errorf("ParseTenantWeights(%q) = %v, want %v", row.in, got, row.want)
		}
		for k, w := range row.want {
			if got[k] != w {
				t.Errorf("ParseTenantWeights(%q)[%q] = %v, want %v", row.in, k, got[k], w)
			}
		}
	}
}

// TestNewRefusesTenantWeights: Config.TenantWeights passes the check
// ParseTenantWeights applies, before New touches the data root. A weight
// the scheduler would ignore, or whose reciprocal is not finite and
// positive, is an error rather than a tenant that weighs 1 or a clock
// at +Inf.
func TestNewRefusesTenantWeights(t *testing.T) {
	for _, w := range []float64{1e-320, 4e-309, 0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		dir := filepath.Join(t.TempDir(), "data")
		svc, err := New(Config{DataDir: dir, TenantWeights: map[string]float64{"free": 1, "slow": w}})
		if err == nil {
			svc.Close()
			t.Errorf("New accepted tenant weight %v", w)
			continue
		}
		if want := fmt.Sprintf(`service: Config.TenantWeights: weight for "slow" must be a finite positive number with a finite reciprocal, got %v`, w); err.Error() != want {
			t.Errorf("New(weight %v) = %q, want %q", w, err, want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("New(weight %v) created the data root: %v", w, err)
		}
	}
}

// FuzzParseTenantWeights: every weight ParseTenantWeights accepts has a
// finite, positive reciprocal, so no dispatch can move the scheduler
// clock to +Inf or NaN.
func FuzzParseTenantWeights(f *testing.F) {
	for _, seed := range []string{"", "paid=3,free=1", " a=0.5 , b=2", "x=1e-320", "x=4e-309", "x=6e-309",
		"x=NaN", "x=+Inf", "x=0x1p-1074", "x=1e400", "x=0", "a=1,a=2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		weights, err := ParseTenantWeights(s)
		if err != nil {
			return
		}
		for name, w := range weights {
			if r := 1 / w; !(r > 0) || math.IsInf(r, 0) {
				t.Fatalf("ParseTenantWeights(%q) accepted %q=%v, reciprocal %v", s, name, w, r)
			}
		}
	})
}
