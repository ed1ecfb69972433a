package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/duv"
	"repro/internal/opt"
)

// Spec is a campaign submission: which unit to drive, what coverage to
// chase, and which flow knobs to override.
type Spec struct {
	// Unit names a built-in unit (duv.Names()).
	Unit string `json:"unit"`

	// The campaign's target: these fields mean what the core.Target
	// fields of the same names mean, and exactly one of Family, Cross or
	// Events selects the mode.
	Family string   `json:"family,omitempty"`
	Decay  float64  `json:"decay,omitempty"`
	Rounds int      `json:"rounds,omitempty"`
	Cross  string   `json:"cross,omitempty"`
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

// EngineSpec selects the campaign's optimization engine. Name must be
// one of opt.EngineNames(); the engine runs with its default
// knobs, over the iteration and direction budgets of the spec's config.
type EngineSpec struct {
	Name string `json:"name,omitempty"`

	// Knowledge opts the campaign into the cross-campaign flywheel: at
	// start it reads the knowledge base — harvested (weights, score)
	// pairs become the engine's warm-start prior — and the consumed
	// snapshot is frozen in the campaign directory so a resumed campaign
	// sees byte-identical priors. Admission refuses it with bayes, whose
	// own history steers it down.
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

// target is the campaign's target as core runs it.
func (s Spec) target() core.Target {
	return core.Target{Family: s.Family, Decay: s.Decay, Rounds: s.Rounds, Cross: s.Cross, Events: s.Events, MinSim: s.MinSim}
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

// validate rejects malformed submissions before they consume a
// campaign id: the unit must exist (units builds it, as it does for
// the campaign that runs), the target must pass core.Target.Validate
// against it and the budgets core.Config.Validate, so a typo fails at
// submission rather than after the campaign started.
func (s Spec) validate(units func(string) (duv.DUV, error)) error {
	if s.Unit == "" {
		return errors.New("service: spec: unit is required")
	}
	unit, err := units(s.Unit)
	if err != nil {
		return fmt.Errorf("service: spec: %w", err)
	}
	if err := s.target().Validate(unit); err != nil {
		return fmt.Errorf("service: spec: %w", err)
	}
	if err := s.coreConfig(0).Validate(); err != nil {
		return fmt.Errorf("service: spec: config: %w", err)
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
		if err := opt.Validate(s.Engine.Name, nil); err != nil {
			return fmt.Errorf("service: spec: %w", err)
		}
		// Measured, not assumed: on the same spec run twice, the warm
		// bayes campaign scored below the cold one on 19 of 20 seeds
		// (EXPERIMENTS.md, the flywheel's warm/cold table).
		if s.Engine.Name == "bayes" && s.Engine.Knowledge {
			return errors.New(`service: spec: engine "bayes" with knowledge: warm bayes campaigns lost to cold ones on 19 of 20 seeds; submit bayes without knowledge, or the ranker with it`)
		}
	}
	return nil
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
}

func (st *State) clone() *State {
	dup := *st
	return &dup
}

// slim is the state as campaign.json holds it: the reports live in
// report.json, so every transition is one small atomic rename.
func (st State) slim() State {
	st.Reports = nil
	return st
}
