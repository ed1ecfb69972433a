package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/duv"
	"repro/internal/opt"
)

// Spec is a campaign submission: which unit to drive, what coverage to
// chase, and which flow knobs to override. Exactly one of Family, Cross
// or Events selects the target mode.
type Spec struct {
	// Unit names a built-in unit (duv.Names()).
	Unit string `json:"unit"`

	// Family targets a buffer-utilization event family (the paper's
	// Figs. 3/4 experiments). Decay weights the approximated target
	// (default 1.0 = plain family sum); Rounds is the number of
	// refinement rounds (default 1).
	Family string  `json:"family,omitempty"`
	Decay  float64 `json:"decay,omitempty"`
	Rounds int     `json:"rounds,omitempty"`

	// Cross targets a cross-product coverage model (the paper's IFU
	// experiment).
	Cross string `json:"cross,omitempty"`

	// Events targets an explicit event list; MinSim is the minimum
	// name-similarity for approximated-target neighbors (default 0.5).
	Events []string `json:"events,omitempty"`
	MinSim float64  `json:"min_sim,omitempty"`

	// Seed makes the campaign reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Tenant attributes the campaign for weighted fair-share scheduling
	// and per-tenant metrics (default "default"). Weights come from the
	// daemon's -tenant-weights configuration; unknown tenants weigh 1.
	Tenant string `json:"tenant,omitempty"`

	// Engine selects the optimization engine (nil: the paper's default,
	// implicit filtering, exactly as before the field existed).
	Engine *EngineSpec `json:"engine,omitempty"`

	// Config overrides individual flow budgets; zero fields keep the
	// flow's defaults.
	Config SpecConfig `json:"config,omitempty"`
}

// EngineSpec selects and parameterizes the campaign's optimization
// engine. Name must be registered (opt.EngineNames()); Params is the
// engine's own knob object, validated strictly at admission so a typo
// fails the submission with the full key list instead of being silently
// ignored mid-campaign.
type EngineSpec struct {
	Name   string          `json:"name,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`

	// Knowledge opts the campaign into the cross-campaign flywheel: at
	// start it reads the knowledge base — harvested (weights, score)
	// pairs become the engine's warm-start prior, damped per-template
	// scores boost the coarse-grained TAC ranking — and the consumed
	// snapshot is frozen in the campaign directory so a resumed campaign
	// sees byte-identical priors.
	Knowledge bool `json:"knowledge,omitempty"`
}

// SpecConfig is the subset of core.Config a campaign may override,
// with JSON names matching the ascdg flag vocabulary.
type SpecConfig struct {
	CorpusSims      int `json:"corpus_sims,omitempty"`
	TopTemplates    int `json:"top_templates,omitempty"`
	Subranges       int `json:"subranges,omitempty"`
	SampleTemplates int `json:"samples,omitempty"`
	SampleSims      int `json:"sample_sims,omitempty"`
	OptIterations   int `json:"iterations,omitempty"`
	OptDirections   int `json:"directions,omitempty"`
	OptSims         int `json:"opt_sims,omitempty"`
	BestSims        int `json:"best_sims,omitempty"`
	Workers         int `json:"workers,omitempty"`
}

func (s Spec) decay() float64 {
	if s.Decay <= 0 || s.Decay > 1 {
		return 1.0
	}
	return s.Decay
}

func (s Spec) rounds() int {
	if s.Rounds <= 0 {
		return 1
	}
	return s.Rounds
}

func (s Spec) minSim() float64 {
	if s.MinSim <= 0 {
		return 0.5
	}
	return s.MinSim
}

func (s Spec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

func (s Spec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// engineName is the campaign's resolved engine — the metrics label and
// the name replayed journals are verified against.
func (s Spec) engineName() string {
	if s.Engine == nil || s.Engine.Name == "" {
		return opt.DefaultEngine
	}
	return s.Engine.Name
}

func (s Spec) useKnowledge() bool {
	return s.Engine != nil && s.Engine.Knowledge
}

// targetDesc renders the campaign's target mode for knowledge entries.
func (s Spec) targetDesc() string {
	switch {
	case s.Family != "":
		return "family:" + s.Family
	case s.Cross != "":
		return "cross:" + s.Cross
	default:
		return "events:" + strings.Join(s.Events, ",")
	}
}

// validate rejects malformed submissions before they consume a
// campaign id: the unit must exist, and so must the family, cross
// product or events the spec targets in that unit's coverage model, so
// a typo fails at submission rather than after the campaign started.
func (s Spec) validate() error {
	if s.Unit == "" {
		return errors.New("service: spec: unit is required")
	}
	unit, err := duv.New(s.Unit)
	if err != nil {
		return fmt.Errorf("service: spec: %w", err)
	}
	modes := 0
	if s.Family != "" {
		modes++
	}
	if s.Cross != "" {
		modes++
	}
	if len(s.Events) > 0 {
		modes++
	}
	if modes != 1 {
		return errors.New("service: spec: exactly one of family, cross or events is required")
	}
	model := unit.Model()
	if _, ok := model.Family(s.Family); s.Family != "" && !ok {
		return fmt.Errorf("service: spec: unit %q has no family %q (families: %s)",
			s.Unit, s.Family, nameList(model.FamilyNames()))
	}
	if _, ok := model.Cross(s.Cross); s.Cross != "" && !ok {
		return fmt.Errorf("service: spec: unit %q has no cross product %q (cross products: %s)",
			s.Unit, s.Cross, nameList(model.CrossNames()))
	}
	if _, err := model.IDs(s.Events); err != nil {
		return fmt.Errorf("service: spec: unit %q: %w", s.Unit, err)
	}
	if len(s.Tenant) > 64 {
		return errors.New("service: spec: tenant name too long (max 64)")
	}
	for _, r := range s.Tenant {
		if !(r == '-' || r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return fmt.Errorf("service: spec: invalid tenant name %q", s.Tenant)
		}
	}
	if s.Engine != nil {
		if err := opt.Validate(s.Engine.Name, s.Engine.Params); err != nil {
			return fmt.Errorf("service: spec: %w", err)
		}
	}
	return nil
}

// nameList renders the names a rejection offers instead.
func nameList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// coreConfig expands the spec into the flow config it runs under.
func (s Spec) coreConfig(defaultWorkers int) core.Config {
	workers := s.Config.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	cfg := core.Config{
		Seed:                  s.seed(),
		Workers:               workers,
		CorpusSimsPerTemplate: s.Config.CorpusSims,
		TopTemplates:          s.Config.TopTemplates,
		Subranges:             s.Config.Subranges,
		SampleTemplates:       s.Config.SampleTemplates,
		SampleSims:            s.Config.SampleSims,
		OptIterations:         s.Config.OptIterations,
		OptDirections:         s.Config.OptDirections,
		OptSims:               s.Config.OptSims,
		BestSims:              s.Config.BestSims,
	}
	if s.Engine != nil {
		cfg.Engine = s.Engine.Name
		cfg.EngineParams = s.Engine.Params
	}
	return cfg
}

// State is a campaign's externally visible record: the submission, its
// lifecycle position, and (once done) its reports. It is both the
// campaign.json schema and the GET /v1/campaigns/{id} response body.
type State struct {
	ID          string        `json:"id"`
	Spec        Spec          `json:"spec"`
	State       string        `json:"state"`
	Error       string        `json:"error,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Reports     []*ReportJSON `json:"reports,omitempty"`

	// Owner and Epoch identify the replica that last ran (or is
	// running) the campaign and its lease fencing epoch — set at
	// dispatch, kept through terminal states so an adopted campaign
	// records who finished it.
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

func (st *State) clone() *State {
	dup := *st
	return &dup
}
