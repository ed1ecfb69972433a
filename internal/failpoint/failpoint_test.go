package failpoint

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"error", Policy{Kind: KindError, Rate: 1}},
		{"drop", Policy{Kind: KindDrop, Rate: 1}},
		{"panic", Policy{Kind: KindPanic, Rate: 1}},
		{"corrupt", Policy{Kind: KindCorrupt, Rate: 1}},
		{"corrupt:0.5", Policy{Kind: KindCorrupt, Rate: 0.5}},
		{"error:1:3", Policy{Kind: KindError, Rate: 1, Times: 3}},
		{"delay(250ms)", Policy{Kind: KindDelay, Delay: 250 * time.Millisecond, Rate: 1}},
		{"delay(1s):0.25:2", Policy{Kind: KindDelay, Delay: time.Second, Rate: 0.25, Times: 2}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String must round-trip through the same grammar.
		back, err := ParsePolicy(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip of %q via %q failed: %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{
		"", "explode", "delay", "delay(x)", "delay(-1s)", "error(5)",
		"error:0", "error:2", "error:1:-1", "error:1:0", "error:nope",
		"delay(1s", "error:NaN", "drop:nan:2",
	} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q): expected error", bad)
		}
	}
}

// FuzzParsePolicy: every policy ParsePolicy accepts has a rate in
// (0, 1], a delay and a count that are not negative, and prints (String)
// to a spec that parses back to the same policy.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{
		"error", "delay(250ms)", "corrupt:0.5", "drop:1:3", "panic",
		"delay(1s):0.25:2", "error:1:2", "error:NaN", "drop:nan:2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		if !(p.Rate > 0 && p.Rate <= 1) || p.Delay < 0 || p.Times < 0 {
			t.Fatalf("ParsePolicy(%q) = %+v: rate outside (0, 1] or a negative delay or count", s, p)
		}
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %+v prints as %q, which parses to %+v, %v", s, p, p.String(), back, err)
		}
	})
}

func TestConfigureAndSnapshot(t *testing.T) {
	r := New(7)
	spec := "farm/serve_chunk=corrupt:0.5, journal/append=error:1:2,seed=42"
	if err := r.Configure(spec); err != nil {
		t.Fatal(err)
	}
	if !r.Armed() {
		t.Fatal("registry should be armed")
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2: %+v", len(snap), snap)
	}
	if snap[0].Name != "farm/serve_chunk" || snap[0].Policy != "corrupt:0.5" {
		t.Errorf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].Name != "journal/append" || snap[1].Policy != "error:1:2" {
		t.Errorf("snapshot[1] = %+v", snap[1])
	}
	for _, bad := range []string{"nope", "=error", "x=", "x=explode", "seed=abc"} {
		if err := New(1).Configure(bad); err == nil {
			t.Errorf("Configure(%q): expected error", bad)
		}
	}
	// Empty spec is a no-op.
	if err := New(1).Configure("  "); err != nil {
		t.Fatal(err)
	}
}

func TestDisarmedIsNoop(t *testing.T) {
	r := New(1)
	if err := r.Eval("anything"); err != nil {
		t.Fatal(err)
	}
	b := []byte{1, 2, 3}
	if err := r.Bytes("anything", b); err != nil || b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("disarmed Bytes mutated payload: %v %v", b, err)
	}
	// nil registry is equally safe.
	var nilr *Registry
	if err := nilr.Eval("x"); err != nil {
		t.Fatal(err)
	}
	nilr.Set("x", Policy{Kind: KindError})
	nilr.Reset()
	if nilr.Armed() || nilr.Fired("x") != 0 || nilr.Snapshot() != nil {
		t.Fatal("nil registry should be inert")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Eval("hot/path") }); allocs != 0 {
		t.Errorf("disarmed Eval allocates %v times per call", allocs)
	}
}

func TestErrorDropAndTimes(t *testing.T) {
	r := New(1)
	r.Set("p", Policy{Kind: KindError, Times: 2})
	for i := 0; i < 2; i++ {
		err := r.Eval("p")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("firing %d: got %v", i, err)
		}
		if !strings.Contains(err.Error(), "at p") {
			t.Fatalf("error should name the point: %v", err)
		}
	}
	if err := r.Eval("p"); err != nil {
		t.Fatalf("times budget spent, want nil, got %v", err)
	}
	if got := r.Fired("p"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}

	r.Set("d", Policy{Kind: KindDrop})
	err := r.Eval("d")
	if !errors.Is(err, ErrDropped) || !errors.Is(err, ErrInjected) {
		t.Fatalf("drop should wrap both sentinels: %v", err)
	}
}

func TestDelay(t *testing.T) {
	r := New(1)
	r.Set("slow", Policy{Kind: KindDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := r.Eval("slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay policy slept only %v", d)
	}
}

func TestPanicPolicy(t *testing.T) {
	r := New(1)
	r.Set("boom", Policy{Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("expected injected panic")
		}
	}()
	r.Eval("boom")
}

func TestCorruptMutatesDeterministically(t *testing.T) {
	run := func(seed int64) ([]byte, []uint64) {
		r := New(seed)
		r.Set("b", Policy{Kind: KindCorrupt})
		r.Set("u", Policy{Kind: KindCorrupt})
		b := []byte{0, 0, 0, 0, 0, 0, 0, 0}
		u := []uint64{0, 0, 0, 0}
		if err := r.Bytes("b", b); err != nil {
			t.Fatal(err)
		}
		if err := r.Uints("u", u); err != nil {
			t.Fatal(err)
		}
		return b, u
	}
	b1, u1 := run(99)
	b2, u2 := run(99)
	if string(b1) != string(b2) {
		t.Fatalf("byte corruption not deterministic: %v vs %v", b1, b2)
	}
	changedB, changedU := false, false
	for i := range b1 {
		if b1[i] != 0 {
			changedB = true
		}
		if u1[i%len(u1)] != u2[i%len(u2)] {
			t.Fatalf("uint corruption not deterministic: %v vs %v", u1, u2)
		}
	}
	for _, v := range u1 {
		if v != 0 {
			changedU = true
		}
	}
	if !changedB || !changedU {
		t.Fatalf("corrupt policy must actually change the payload: %v %v", b1, u1)
	}
	// Empty payloads are tolerated.
	r := New(1)
	r.Set("b", Policy{Kind: KindCorrupt})
	if err := r.Bytes("b", nil); err != nil {
		t.Fatal(err)
	}
	// Eval at a corrupt point (nothing to corrupt) degrades to an error.
	r.Set("e", Policy{Kind: KindCorrupt})
	if err := r.Eval("e"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Eval at corrupt point: %v", err)
	}
}

func TestRateIsSeededAndReproducible(t *testing.T) {
	schedule := func(seed int64) []bool {
		r := New(seed)
		r.Set("p", Policy{Kind: KindError, Rate: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Eval("p") != nil
		}
		return out
	}
	a, b := schedule(5), schedule(5)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules with the same seed diverge at %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Fatalf("rate 0.3 over 200 evals fired %d times", fired)
	}
	c := schedule(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestClearAndReset(t *testing.T) {
	r := New(1)
	r.Set("a", Policy{Kind: KindError})
	r.Set("b", Policy{Kind: KindError})
	r.Clear("a")
	if err := r.Eval("a"); err != nil {
		t.Fatalf("cleared point fired: %v", err)
	}
	if err := r.Eval("b"); err == nil {
		t.Fatal("surviving point should fire")
	}
	if !r.Armed() {
		t.Fatal("still one point armed")
	}
	r.Reset()
	if r.Armed() || r.Eval("b") != nil {
		t.Fatal("reset should disarm everything")
	}
}

func TestDefaultWrappers(t *testing.T) {
	defer Default.Reset()
	if err := Configure("wrapped/point=error:1:1"); err != nil {
		t.Fatal(err)
	}
	if err := Eval("wrapped/point"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Default Eval: %v", err)
	}
	if err := Eval("wrapped/point"); err != nil {
		t.Fatalf("times spent: %v", err)
	}
	if err := Bytes("other", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := Uints("other", []uint64{1}); err != nil {
		t.Fatal(err)
	}
}
