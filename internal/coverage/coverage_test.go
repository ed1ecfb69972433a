package coverage

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel([]string{"a", ""}); err == nil {
		t.Error("empty event name should fail")
	}
	if _, err := NewModel([]string{"a", "a"}); err == nil {
		t.Error("duplicate event name should fail")
	}
	m := testModel(t)
	if m.Size() != 5 {
		t.Fatalf("size = %d", m.Size())
	}
	if id, ok := m.Lookup("c"); !ok || id != 2 {
		t.Fatalf("Lookup(c) = %d,%v", id, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Error("Lookup of missing event should report false")
	}
	if m.Name(4) != "e" {
		t.Fatalf("Name(4) = %q", m.Name(4))
	}
	if m.MustLookup("a") != 0 {
		t.Error("MustLookup(a) != 0")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown event should panic")
		}
	}()
	testModel(t).MustLookup("zzz")
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustModel with duplicate should panic")
		}
	}()
	MustModel([]string{"x", "x"})
}

func TestFamilies(t *testing.T) {
	m := testModel(t)
	if err := m.AddFamily("fam", []string{"b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	ids, ok := m.Family("fam")
	if !ok || len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("Family = %v, %v", ids, ok)
	}
	if err := m.AddFamily("fam", []string{"a"}); err == nil {
		t.Error("duplicate family should fail")
	}
	if err := m.AddFamily("bad", []string{"zzz"}); err == nil {
		t.Error("unknown event in family should fail")
	}
	if err := m.AddFamily("", []string{"a"}); err == nil {
		t.Error("empty family name should fail")
	}
	if err := m.AddFamily("empty", nil); err == nil {
		t.Error("empty family should fail")
	}
	names := m.FamilyNames()
	if len(names) != 1 || names[0] != "fam" {
		t.Fatalf("FamilyNames = %v", names)
	}
}

func TestIDs(t *testing.T) {
	m := testModel(t)
	ids, err := m.IDs([]string{"e", "a"})
	if err != nil || len(ids) != 2 || ids[0] != 4 || ids[1] != 0 {
		t.Fatalf("IDs = %v, %v", ids, err)
	}
	if _, err := m.IDs([]string{"nope"}); err == nil {
		t.Error("IDs with unknown name should fail")
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, id := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(id) {
			t.Fatalf("fresh vector has bit %d set", id)
		}
		v.Set(id)
		if !v.Get(id) {
			t.Fatalf("Set(%d) did not stick", id)
		}
	}
	if popCount(v) != 8 {
		t.Fatalf("popCount = %d, want 8", popCount(v))
	}
	ids := hitIDs(v)
	want := []int{0, 1, 63, 64, 65, 127, 128, 129}
	if len(ids) != len(want) {
		t.Fatalf("hitIDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("hitIDs[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
	v.Reset()
	if popCount(v) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestVectorAlgebraProperties(t *testing.T) {
	mk := func(seed uint64, n int) Vector {
		r := rng.New(seed)
		v := NewVector(n)
		for i := 0; i < n; i++ {
			if r.Bool(0.3) {
				v.Set(i)
			}
		}
		return v
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		a, b := mk(seed+1, n), mk(seed+2, n)

		// hitIDs lists exactly the set bits, ascending, and popCount
		// counts them.
		ids := hitIDs(a)
		if len(ids) != popCount(a) {
			return false
		}
		next := 0
		for i := 0; i < n; i++ {
			set := next < len(ids) && ids[next] == i
			if a.Get(i) != set {
				return false
			}
			if set {
				next++
			}
		}
		// Equal compares bits: a and b differ unless they agree on every
		// event.
		same := true
		for i := 0; i < n; i++ {
			same = same && a.Get(i) == b.Get(i)
		}
		if a.Equal(b) != same {
			return false
		}
		// Clone independence: mutating the clone must not affect the
		// original.
		c := a.Clone()
		if !c.Equal(a) {
			return false
		}
		before := popCount(a)
		for i := 0; i < n; i++ {
			c.Set(i)
		}
		if popCount(a) != before || popCount(c) != n {
			return false
		}
		c.Reset()
		return popCount(c) == 0 && popCount(a) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorEqualDifferentLengths(t *testing.T) {
	if NewVector(3).Equal(NewVector(4)) {
		t.Fatal("vectors of different lengths must not be equal")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		hits, sims uint64
		want       Status
	}{
		{0, 0, StatusNever},
		{0, 1000, StatusNever},
		{1, 10, StatusLightly},        // <100 hits
		{99, 99, StatusLightly},       // <100 hits even at 100% rate
		{100, 100, StatusWell},        // 100 hits at 100%
		{100, 100000, StatusLightly},  // 0.1% rate
		{500, 10000, StatusWell},      // 5%
		{1000, 100001, StatusLightly}, // just under 1%
		{1000, 100000, StatusWell},    // exactly 1%
	}
	for _, tc := range cases {
		if got := Classify(tc.hits, tc.sims); got != tc.want {
			t.Errorf("Classify(%d, %d) = %v, want %v", tc.hits, tc.sims, got, tc.want)
		}
	}
}

func TestStatusString(t *testing.T) {
	if StatusNever.String() != "never" || StatusLightly.String() != "lightly" || StatusWell.String() != "well" {
		t.Fatal("Status.String mismatch")
	}
	if Status(99).String() != "unknown" {
		t.Fatal("unknown status should print as unknown")
	}
}

func TestClassifyMonotoneInHits(t *testing.T) {
	// Property: with sims fixed, adding hits never lowers the status.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sims := uint64(1 + r.Intn(1_000_000))
		probes := []uint64{0, 1, 50, 99, 100, sims / 100, sims / 2, sims}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		prev := StatusNever
		for _, hits := range probes {
			if hits > sims {
				continue
			}
			s := Classify(hits, sims)
			if s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsAggregation(t *testing.T) {
	m := testModel(t)
	c := NewCountsFor(m)
	v := NewVectorFor(m)
	v.Set(1)
	v.Set(3)
	c.Add(v)
	v.Reset()
	v.Set(1)
	c.Add(v)
	if c.Sims() != 2 {
		t.Fatalf("Sims = %d", c.Sims())
	}
	if c.Hits(1) != 2 || c.Hits(3) != 1 || c.Hits(0) != 0 {
		t.Fatalf("hits = %d,%d,%d", c.Hits(1), c.Hits(3), c.Hits(0))
	}
	if c.HitRate(1) != 1.0 || c.HitRate(3) != 0.5 {
		t.Fatalf("rates = %v,%v", c.HitRate(1), c.HitRate(3))
	}
	if NewCounts(3).HitRate(0) != 0 {
		t.Fatal("HitRate with no sims should be 0")
	}
}

func TestCountsMergeAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		mk := func() *Counts {
			c := NewCounts(n)
			for s := 0; s < r.Intn(20); s++ {
				v := NewVector(n)
				for i := 0; i < n; i++ {
					if r.Bool(0.2) {
						v.Set(i)
					}
				}
				c.Add(v)
			}
			return c
		}
		a, b, c := mk(), mk(), mk()
		// (a+b)+c == a+(b+c)
		left := a.Clone()
		left.Merge(b)
		left.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		right := a.Clone()
		right.Merge(bc)
		if left.Sims() != right.Sims() {
			return false
		}
		for i := 0; i < n; i++ {
			if left.Hits(i) != right.Hits(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of mismatched vector should panic")
		}
	}()
	NewCounts(3).Add(NewVector(4))
}

func TestCountsMergeNilIsNoop(t *testing.T) {
	c := NewCounts(2)
	c.Merge(nil)
	if c.Sims() != 0 {
		t.Fatal("Merge(nil) should be a no-op")
	}
}

func TestStatusCounts(t *testing.T) {
	m := testModel(t)
	c := NewCountsFor(m)
	// 1000 sims: event 0 never, event 1 lightly (50 hits), event 2 well (500).
	for i := 0; i < 1000; i++ {
		v := NewVectorFor(m)
		if i < 50 {
			v.Set(1)
		}
		if i < 500 {
			v.Set(2)
		}
		c.Add(v)
	}
	sc := c.StatusCounts([]int{0, 1, 2})
	if sc[StatusNever] != 1 || sc[StatusLightly] != 1 || sc[StatusWell] != 1 {
		t.Fatalf("StatusCounts = %v", sc)
	}
	all := c.StatusCounts(nil)
	if all[StatusNever] != 3 { // events 0, 3, 4
		t.Fatalf("all StatusCounts = %v", all)
	}
}

func TestRepositoryBasics(t *testing.T) {
	m := testModel(t)
	repo := NewRepository(m)
	v := NewVectorFor(m)
	v.Set(0)
	repo.Record("t1", v)
	v.Reset()
	v.Set(1)
	repo.Record("t2", v)
	repo.Record("t2", v)

	if repo.Sims() != 3 {
		t.Fatalf("Sims = %d", repo.Sims())
	}
	if got := repo.Total().Hits(1); got != 2 {
		t.Fatalf("total hits(b) = %d", got)
	}
	c, ok := repo.Template("t2")
	if !ok || c.Sims() != 2 || c.Hits(1) != 2 {
		t.Fatalf("t2 counts = %+v, %v", c, ok)
	}
	if _, ok := repo.Template("missing"); ok {
		t.Error("missing template should not be found")
	}
	names := repo.TemplateNames()
	if len(names) != 2 || names[0] != "t1" || names[1] != "t2" {
		t.Fatalf("TemplateNames = %v", names)
	}
	unc := repo.Uncovered()
	if len(unc) != 3 { // c, d, e
		t.Fatalf("Uncovered = %v", unc)
	}
}

func TestRepositoryRecordCounts(t *testing.T) {
	m := testModel(t)
	repo := NewRepository(m)
	c := NewCountsFor(m)
	v := NewVectorFor(m)
	v.Set(2)
	c.Add(v)
	c.Add(v)
	repo.RecordCounts("batch", c)
	if repo.Sims() != 2 || repo.Total().Hits(2) != 2 {
		t.Fatal("RecordCounts did not aggregate")
	}
	repo.RecordCounts("batch", c)
	tc, _ := repo.Template("batch")
	if tc.Sims() != 4 {
		t.Fatalf("batch sims = %d, want 4", tc.Sims())
	}
}

func TestRepositoryLightlyHit(t *testing.T) {
	m := testModel(t)
	repo := NewRepository(m)
	for i := 0; i < 1000; i++ {
		v := NewVectorFor(m)
		v.Set(0) // always: well hit
		if i < 5 {
			v.Set(1) // 5 hits: lightly
		}
		repo.Record("t", v)
	}
	lh := repo.LightlyHit()
	if len(lh) != 1 || lh[0] != 1 {
		t.Fatalf("LightlyHit = %v", lh)
	}
}

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	m := testModel(t)
	if err := m.AddFamily("fam", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	repo := NewRepository(m)
	r := rng.New(1)
	for s := 0; s < 100; s++ {
		v := NewVectorFor(m)
		for i := 0; i < m.Size(); i++ {
			if r.Bool(0.3) {
				v.Set(i)
			}
		}
		repo.Record("t"+string(rune('a'+s%3)), v)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sims() != repo.Sims() {
		t.Fatalf("loaded sims = %d, want %d", loaded.Sims(), repo.Sims())
	}
	for _, name := range repo.TemplateNames() {
		a, _ := repo.Template(name)
		b, ok := loaded.Template(name)
		if !ok || a.Sims() != b.Sims() {
			t.Fatalf("template %q not reproduced", name)
		}
		for i := 0; i < m.Size(); i++ {
			if a.Hits(i) != b.Hits(i) {
				t.Fatalf("template %q event %d: %d != %d", name, i, a.Hits(i), b.Hits(i))
			}
		}
	}
}

func TestRepositoryLoadModelMismatch(t *testing.T) {
	m := testModel(t)
	repo := NewRepository(m)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := MustModel([]string{"a", "b", "c", "d", "x"})
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("loading against a mismatched model should fail")
	}
	small := MustModel([]string{"a"})
	if _, err := Load(bytes.NewReader(buf.Bytes()), small); err == nil {
		t.Fatal("loading against a smaller model should fail")
	}
	if _, err := Load(strings.NewReader("not json"), m); err == nil {
		t.Fatal("loading garbage should fail")
	}
}

// TestRepositoryLoadRefusesImpossibleCounts: a saved repository is
// outside input, so a template without simulations, or with an event
// hit more often than it was simulated, is refused by name.
func TestRepositoryLoadRefusesImpossibleCounts(t *testing.T) {
	m := MustModel([]string{"a", "b"})
	for _, c := range []struct{ doc, want string }{
		{`{"events":["a","b"],"templates":{"t1":{"sims":0,"hits":[0,0]}}}`,
			`coverage: template "t1" has no simulations`},
		{`{"events":["a","b"],"templates":{"t1":{"sims":4,"hits":[1,1]},"t2":{"sims":4,"hits":[2,23]}}}`,
			`coverage: template "t2" hits b 23 times in 4 simulations`},
	} {
		if _, err := Load(strings.NewReader(c.doc), m); err == nil || err.Error() != c.want {
			t.Errorf("Load(%s) = %v, want %q", c.doc, err, c.want)
		}
	}
	// A template that hits an event on every simulation is fine.
	repo, err := Load(strings.NewReader(`{"events":["a","b"],"templates":{"t1":{"sims":4,"hits":[4,0]}}}`), m)
	if err != nil || repo.Sims() != 4 {
		t.Fatalf("Load of a full-rate template: %v", err)
	}
}

func TestCrossProduct(t *testing.T) {
	cp, err := NewCrossProduct("ifu", []Dim{
		{Name: "entry", Values: []string{"e0", "e1", "e2"}},
		{Name: "thread", Values: []string{"t0", "t1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Size() != 6 {
		t.Fatalf("Size = %d", cp.Size())
	}
	names := cp.EventNames()
	if len(names) != 6 {
		t.Fatalf("EventNames = %v", names)
	}
	if names[0] != "ifu_e0_t0" || names[1] != "ifu_e0_t1" || names[5] != "ifu_e2_t1" {
		t.Fatalf("EventNames order = %v", names)
	}
	coords, err := cp.Coords("ifu_e1_t1")
	if err != nil || coords[0] != 1 || coords[1] != 1 {
		t.Fatalf("Coords = %v, %v", coords, err)
	}
	if _, err := cp.Coords("other_e1_t1"); err == nil {
		t.Error("Coords of foreign event should fail")
	}
	if _, err := cp.Coords("ifu_e1"); err == nil {
		t.Error("Coords with wrong arity should fail")
	}
	if _, err := cp.Coords("ifu_e9_t0"); err == nil {
		t.Error("Coords with unknown value should fail")
	}
}

func TestCrossProductValidation(t *testing.T) {
	if _, err := NewCrossProduct("", []Dim{{Name: "a", Values: []string{"x"}}}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewCrossProduct("c", nil); err == nil {
		t.Error("no dims should fail")
	}
	if _, err := NewCrossProduct("c", []Dim{{Name: "", Values: []string{"x"}}}); err == nil {
		t.Error("empty dim name should fail")
	}
	if _, err := NewCrossProduct("c", []Dim{{Name: "a"}}); err == nil {
		t.Error("dim without values should fail")
	}
	if _, err := NewCrossProduct("c", []Dim{{Name: "a", Values: []string{"x", "x"}}}); err == nil {
		t.Error("duplicate dim value should fail")
	}
	if _, err := NewCrossProduct("c", []Dim{{Name: "a", Values: []string{""}}}); err == nil {
		t.Error("empty dim value should fail")
	}
}

func TestModelCrossRegistration(t *testing.T) {
	cp, _ := NewCrossProduct("x", []Dim{{Name: "d", Values: []string{"a", "b"}}})
	m := MustModel(cp.EventNames())
	if err := m.AddCross(cp); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Cross("x")
	if !ok || got != cp {
		t.Fatal("Cross lookup failed")
	}
	if err := m.AddCross(cp); err == nil {
		t.Error("duplicate cross should fail")
	}
	if err := m.AddCross(nil); err == nil {
		t.Error("nil cross should fail")
	}
	other, _ := NewCrossProduct("y", []Dim{{Name: "d", Values: []string{"q"}}})
	if err := m.AddCross(other); err == nil {
		t.Error("cross with unknown events should fail")
	}
	if names := m.CrossNames(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("CrossNames = %v", names)
	}
}

func TestCrossEventNamesMatchSize(t *testing.T) {
	f := func(a, b, c uint8) bool {
		na, nb, nc := int(a%4)+1, int(b%4)+1, int(c%4)+1
		mkVals := func(prefix string, n int) []string {
			vs := make([]string, n)
			for i := range vs {
				vs[i] = prefix + string(rune('0'+i))
			}
			return vs
		}
		cp, err := NewCrossProduct("cp", []Dim{
			{Name: "x", Values: mkVals("x", na)},
			{Name: "y", Values: mkVals("y", nb)},
			{Name: "z", Values: mkVals("z", nc)},
		})
		if err != nil {
			return false
		}
		names := cp.EventNames()
		if len(names) != cp.Size() || cp.Size() != na*nb*nc {
			return false
		}
		// All names unique and all round-trip through Coords.
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				return false
			}
			seen[n] = true
			coords, err := cp.Coords(n)
			if err != nil {
				return false
			}
			if cp.EventName(coords) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
