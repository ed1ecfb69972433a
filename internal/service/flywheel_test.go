package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "repro/internal/duv/l3cache"
)

// engineSpec is tinySpec under an explicit engine, with the knowledge
// flywheel enabled when know is set.
func engineSpec(name string, know bool) Spec {
	spec := tinySpec()
	spec.Engine = &EngineSpec{Name: name, Knowledge: know}
	return spec
}

// harvestScore is the campaign's achieved coverage-per-simulation: the
// final round's standalone ("best" phase) mean per-target hit rate —
// the same score the knowledge base stores. Both sides of the A/B run
// identical simulation budgets, so comparing scores compares novel
// coverage per sim.
func harvestScore(t *testing.T, st *State) float64 {
	t.Helper()
	if len(st.Reports) == 0 {
		t.Fatal("campaign has no reports")
	}
	r := st.Reports[len(st.Reports)-1]
	for i := range r.Phases {
		p := &r.Phases[i]
		if p.Name != "best" || p.Sims == 0 || len(p.TargetHits) == 0 {
			continue
		}
		var hits uint64
		for _, n := range p.TargetHits {
			hits += n
		}
		return float64(hits) / (float64(p.Sims) * float64(len(p.TargetHits)))
	}
	t.Fatal("no best phase in final report")
	return 0
}

// TestHTTPEngineSpecGoldens pins the engine-aware API surface: the
// engine spec field round-trips through submission and GET, an unknown
// engine is rejected at admission with the registered-name list, and
// GET /v1/knowledge serves the store before and after a campaign feeds
// it.
func TestHTTPEngineSpecGoldens(t *testing.T) {
	svc := newService(t, Config{MaxRunning: 1, MaxQueue: 16})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// Unknown engine → 400 listing every registered engine.
	resp, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", engineSpec("annealing", false))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine POST status = %d, want 400: %s", resp.StatusCode, body)
	}
	checkGolden(t, "submit_bad_engine.json", normalize(body))
	// A deleted engine's name is refused like any unknown one.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", engineSpec("nelder_mead", false))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown engine \"nelder_mead\"`) {
		t.Fatalf("nelder_mead POST status = %d, want 400 with the unknown-engine error: %s", resp.StatusCode, body)
	}

	// Engine knobs are not settable: a well-formed engine.params is an
	// unknown field of the spec → 400, not a run that drops it.
	withParams := struct {
		Spec
		Engine map[string]any `json:"engine"`
	}{tinySpec(), map[string]any{"name": "ranker", "params": map[string]any{"iterations": 4}}}
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", withParams)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("engine params POST status = %d, want 400: %s", resp.StatusCode, body)
	}
	checkGolden(t, "submit_bad_engine_params.json", normalize(body))

	// bayes with knowledge → 400 giving the measured reason; bayes alone
	// is admitted (the campaign below runs the ranker with knowledge).
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", engineSpec("bayes", true))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "warm bayes campaigns lost to cold ones on 19 of 20 seeds") {
		t.Fatalf("bayes with knowledge POST status = %d, want 400 with the measured reason: %s", resp.StatusCode, body)
	}
	if err := engineSpec("bayes", false).validate(svc.unit); err != nil {
		t.Fatalf("bayes without knowledge refused: %v", err)
	}

	// The knowledge base starts empty.
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/knowledge", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knowledge GET status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "knowledge_empty.json", normalize(body))

	// A campaign under an explicit engine: accepted, and the engine spec
	// round-trips through the campaign state.
	spec := engineSpec("ranker", true)
	spec.Config.OptIterations = 4
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("engine POST status = %d, want 202: %s", resp.StatusCode, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, accepted.ID)
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/campaigns/"+accepted.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "get_engine_done.json", normalize(body))

	// The finished campaign fed the knowledge base; the endpoint now
	// serves its harvest entry.
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/knowledge", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knowledge GET status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "knowledge_fed.json", normalize(body))
}

// abSpec is the A/B campaign: the L3 bypass family, whose ladder is
// gentle enough that these budgets newly cover target events (the
// iounit CRC targets need paper-scale budgets and would score zero on
// both sides, making the comparison vacuous).
func abSpec() Spec {
	return Spec{
		Unit:   "l3cache",
		Family: "byp_reqs",
		Seed:   2,
		Engine: &EngineSpec{Name: "ranker", Knowledge: true},
		Config: SpecConfig{
			CorpusSims:      150,
			TopTemplates:    2,
			Subranges:       3,
			SampleTemplates: 20,
			SampleSims:      25,
			OptIterations:   8,
			OptDirections:   6,
			OptSims:         30,
			BestSims:        400,
			Workers:         4,
		},
	}
}

// TestWarmRankerBeatsCold is the flywheel's acceptance criterion: two
// byte-identical ranker campaigns on one data root, run back to back —
// the second starts from the first's harvested knowledge (a non-empty
// warm-start prior) and must achieve at least as much novel coverage per
// simulation, at the identical simulation budget. Knowledge reaches the
// engine only: the coarse search reads the corpus alone, so both
// campaigns choose the same templates with the same scores.
func TestWarmRankerBeatsCold(t *testing.T) {
	svc := newService(t, Config{MaxRunning: 1, MaxQueue: 16})
	spec := abSpec()

	coldID, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, svc, coldID)
	if cold.State != StateDone {
		t.Fatalf("cold campaign state = %q (error %q)", cold.State, cold.Error)
	}
	var coldSnap knowledgeSnapshot
	readSnapshot(t, filepath.Join(svc.cfg.DataDir, coldID, "knowledge.json"), &coldSnap)
	if len(coldSnap.Prior) != 0 || len(coldSnap.TAC) != 0 {
		t.Fatalf("cold campaign consumed a non-empty knowledge snapshot: %+v", coldSnap)
	}

	// The finished cold campaign fed the store.
	entries, err := svc.Knowledge()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold campaign fed no knowledge entries")
	}

	warmID, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitDone(t, svc, warmID)
	if warm.State != StateDone {
		t.Fatalf("warm campaign state = %q (error %q)", warm.State, warm.Error)
	}
	var warmSnap map[string]json.RawMessage
	readSnapshot(t, filepath.Join(svc.cfg.DataDir, warmID, "knowledge.json"), &warmSnap)
	if prior := warmSnap["prior"]; len(prior) == 0 || string(prior) == "[]" || string(prior) == "null" {
		t.Fatalf("warm campaign froze an empty warm-start prior: %v", warmSnap)
	}
	if _, ok := warmSnap["tac"]; ok || len(warmSnap) != 1 {
		t.Fatalf("warm campaign froze %d keys (tac %v), want the prior alone", len(warmSnap), ok)
	}
	if !reflect.DeepEqual(warm.Reports[0].ChosenTemplates, cold.Reports[0].ChosenTemplates) {
		t.Fatalf("warm round 1 chose %+v, cold %+v: knowledge reached the coarse search",
			warm.Reports[0].ChosenTemplates, cold.Reports[0].ChosenTemplates)
	}

	coldScore, warmScore := harvestScore(t, cold), harvestScore(t, warm)
	t.Logf("cold score = %.6f, warm score = %.6f", coldScore, warmScore)
	if warmScore < coldScore {
		t.Fatalf("warm ranker (%.6f) lost to cold (%.6f) on coverage per sim", warmScore, coldScore)
	}
}

func readSnapshot(t *testing.T, path string, into any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatal(err)
	}
}

// TestKnowledgeSurvivesRestart: the knowledge base is part of the data
// root — a restarted service serves the previous process's entries.
func TestKnowledgeSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	svc := newService(t, Config{DataDir: dataDir})
	id, err := svc.Submit(engineSpec("ranker", true))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, id); st.State != StateDone {
		t.Fatalf("state = %q (error %q)", st.State, st.Error)
	}
	before, err := svc.Knowledge()
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	restarted := newService(t, Config{DataDir: dataDir})
	after, err := restarted.Knowledge()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) || len(after) == 0 {
		t.Fatalf("restarted knowledge = %d entries, want %d (non-zero)", len(after), len(before))
	}
	if after[0].Campaign != id {
		t.Fatalf("restarted entry campaign = %q, want %q", after[0].Campaign, id)
	}
}
