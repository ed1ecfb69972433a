package service

import (
	"fmt"
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
	if f.len() != 1 || !f.contains("a2") {
		t.Fatalf("len = %d, contains(a2) = %v", f.len(), f.contains("a2"))
	}
	id, _, _ := f.pop()
	if id != "a2" {
		t.Fatalf("pop = %q, want a2", id)
	}
}

// TestParseTenantWeights: -tenant-weights (cdgd) and -tenants (cdgload)
// accept finite positive weights only. NaN used to weigh 1 silently,
// and +Inf starved every other tenant and broke GET /v1/scheduler's
// JSON.
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
