package opt

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// The engine trajectory lock: every engine's Result and the bytes of
// every checkpoint it emits on fixed runs, captured before the engines
// shared one frame. A diff means an engine's proposals, RNG consumption,
// bookkeeping or checkpoint payload drifted — and with them the opt_iter
// records of every journal. Regenerate only for a deliberate change:
//
//	go test ./internal/opt -run TestEnginesGolden -update-engines-golden
var updateEnginesGolden = flag.Bool("update-engines-golden", false, "rewrite testdata/engines.golden (ONLY for deliberate behavior changes)")

// goldenPrior is a two-point knowledge-base prior in the conformance
// objective's dimension: one poor point, one near the optimum.
var goldenPrior = []PriorPoint{
	{X: []float64{5, 5, 5}, Value: -30},
	{X: []float64{60, 55, 50}, Value: -0.3},
}

func TestEnginesGolden(t *testing.T) {
	type row struct {
		name, engine, params string
		prior                []PriorPoint
	}
	var rows []row
	for _, tc := range conformanceCases {
		rows = append(rows, row{name: tc.name, engine: tc.name, params: tc.params})
	}
	rows = append(rows,
		row{"bayes prior", "bayes", `{"iterations": 6}`, goldenPrior},
		row{"ranker prior", "ranker", `{"iterations": 6}`, goldenPrior},
	)

	var buf bytes.Buffer
	for _, r := range rows {
		e, err := New(r.engine, EngineConfig{
			X0:    []float64{10, 80, 40},
			RNG:   rng.New(23),
			Prior: r.prior,
		}, json.RawMessage(r.params))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var states []json.RawMessage
		res, err := Drive(e, DriveOptions{Batch: asBatch(confObjective), Checkpoint: collect(&states)})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		result, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s\nresult %s\n", r.name, result)
		for _, st := range states {
			fmt.Fprintf(&buf, "checkpoint %s\n", st)
		}
	}

	path := filepath.Join("testdata", "engines.golden")
	if *updateEnginesGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-engines-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("engines diverged from testdata/engines.golden at line %d:\n got %.600s\nwant %.600s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("engines diverged from testdata/engines.golden: %d lines, want %d", len(gotLines), len(wantLines))
	}
}
