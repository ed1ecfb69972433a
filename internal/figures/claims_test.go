package figures

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/opt"
	"repro/internal/stats"
)

// claimRow checks one of the paper's six claims (EXPERIMENTS.md) on one
// figure, scale and engine, over held-out seeds named before it first ran.
// A seed's report is bit-identical, so its outcome is recorded exactly.
type claimRow struct {
	claim      int
	fig        string // fig3..fig6; Fig. 6 renders Fig. 4's run
	scale      float64
	rounds     int
	engine     string
	seeds      []uint64
	smoke      int    // leading seeds run when CLAIMS_K is unset; 0 = opt-in
	rung, next string // claim 3: the rung that must end well-hit, and the one above it
	pred       func(claimRow, *Result) (bool, string)
}

func (r claimRow) name() string {
	return fmt.Sprintf("claim%d-%s-scale%g-%s", r.claim, r.fig, r.scale, r.engine)
}

// runKey is what a figure run depends on; rows that agree on it share it.
type runKey struct {
	fig  string
	opts Options
}

func (r claimRow) key(seed uint64, engine string) runKey {
	return runKey{strings.Replace(r.fig, "fig6", "fig4", 1), Options{Scale: r.scale, Seed: seed, Rounds: r.rounds, Engine: engine}}
}

// recordedFails holds, per row, the seeds where its predicate was false at
// K = 20 (EXPERIMENTS.md). A failing row is not re-seeded or resized.
var recordedFails = map[string][]uint64{"claim3-fig3-scale1-implicit_filtering": {914}}

func claimRows() []claimRow {
	all := []uint64{901, 902, 903, 904, 905, 906, 907, 908, 909, 910, 911, 912, 913, 914, 915, 916, 917, 918, 919, 920}
	fig4, def := all[:10], opt.DefaultEngine
	rows := []claimRow{
		{claim: 1, fig: "fig3", scale: 0.005, rounds: 1, engine: def, seeds: all, smoke: 1, pred: deeper},
		{claim: 1, fig: "fig4", scale: 0.005, rounds: 1, engine: def, seeds: fig4, smoke: 1, pred: deeper},
		{claim: 2, fig: "fig5", scale: 0.005, rounds: 1, engine: def, seeds: all, smoke: 3, pred: samplingUncovers},
	}
	for _, r := range []claimRow{
		{fig: "fig3", scale: 0.1, rounds: 4, seeds: all, smoke: 1, rung: "crc_064", next: "crc_096"},
		{fig: "fig3", scale: 1, rounds: 4, seeds: all, rung: "crc_064", next: "crc_096"},
		{fig: "fig4", scale: 0.1, rounds: 5, seeds: fig4, rung: "byp_reqs12", next: "byp_reqs16"},
	} {
		for _, engine := range []string{def, "bayes", "ranker"} {
			r.claim, r.engine, r.pred = 3, engine, wellHit
			rows = append(rows, r)
			r.smoke = 0 // only the default engine's row has a smoke seed
		}
	}
	return append(rows,
		claimRow{claim: 4, fig: "fig3", scale: 0.005, rounds: 1, engine: def, seeds: all, smoke: 1, pred: descending},
		claimRow{claim: 4, fig: "fig4", scale: 0.005, rounds: 1, engine: def, seeds: fig4, smoke: 1, pred: descending},
		claimRow{claim: 5, fig: "fig5", scale: 0.005, rounds: 1, engine: def, seeds: all, smoke: 3, pred: onlyEntry7Unhit},
		claimRow{claim: 6, fig: "fig6", scale: 0.005, rounds: 1, engine: def, seeds: all, smoke: 1, pred: climbs},
	)
}

// TestClaims fails on any seed whose outcome differs from its row's
// record. CLAIMS_K=N runs the first N seeds of every row (-timeout 60m at
// N = 20); unset, a row runs only its smoke seeds, an opt-in row none.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	k, err := strconv.Atoi(cmp.Or(os.Getenv("CLAIMS_K"), "0"))
	if err != nil || k < 0 {
		t.Fatalf("CLAIMS_K=%q: want a seed count", os.Getenv("CLAIMS_K"))
	}
	figs := map[string]func(Options) (*Result, error){"fig3": Fig3, "fig4": Fig4, "fig5": Fig5}
	runs := map[runKey]*Result{}
	for _, row := range claimRows() {
		t.Run(row.name(), func(t *testing.T) {
			n := min(cmp.Or(k, row.smoke), len(row.seeds))
			if n == 0 {
				t.Skip("opt-in: set CLAIMS_K")
			}
			var fails []uint64
			for _, seed := range row.seeds[:n] {
				key := row.key(seed, row.engine)
				res := runs[key]
				if res == nil {
					var err error
					if res, err = figs[key.fig](key.opts); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if res.Name != key.fig || res.Sims == 0 || len(res.Reports) == 0 {
						t.Fatalf("seed %d: %s ran %d sims into %d reports", seed, res.Name, res.Sims, len(res.Reports))
					}
					runs[key] = res
				}
				ok, value := row.pred(row, res)
				if ok == slices.Contains(recordedFails[row.name()], seed) {
					t.Errorf("seed %d: claim %d holds = %v (%s), recorded %v", seed, row.claim, ok, value, !ok)
				}
				if !ok {
					fails = append(fails, seed)
				}
				t.Logf("seed %d: %v, %s", seed, ok, value)
			}
			t.Logf("holds at %d/%d seeds (fails at %v), Wilson %s", n-len(fails), n, fails, stats.Wilson(uint64(n-len(fails)), uint64(n)))
			if row.rung != "" {
				logRung(t, row, row.seeds[:n], runs)
			}
		})
	}
}

// logRung logs a claim-3 row's best-phase rate spread, the seeds below the
// ROADMAP tables' 61 %, and the per-seed difference to the default engine.
func logRung(t *testing.T, row claimRow, seeds []uint64, runs map[runKey]*Result) {
	m, _ := ladder(row.fig)
	id, next := m.MustLookup(row.rung), m.MustLookup(row.next)
	var rates, diffs []float64
	var below []uint64
	var nextHit, hits, sims, baseHits, baseSims uint64
	for _, seed := range seeds {
		c := finalPhase(runs[row.key(seed, row.engine)], "best")
		if rates = append(rates, c.HitRate(id)); c.HitRate(id) < 0.61 {
			below = append(below, seed)
		}
		nextHit += min(c.Hits(next), 1)
		if base := runs[row.key(seed, opt.DefaultEngine)]; base != nil {
			b := finalPhase(base, "best")
			diffs = append(diffs, 100*(c.HitRate(id)-b.HitRate(id)))
			hits, sims, baseHits, baseSims = hits+c.Hits(id), sims+c.Sims(), baseHits+b.Hits(id), baseSims+b.Sims()
		}
	}
	slices.Sort(rates)
	quantile := func(q float64) float64 { // linear between order statistics
		i, f := math.Modf(q * float64(len(rates)-1))
		return 100 * (rates[int(i)] + f*(rates[min(int(i)+1, len(rates)-1)]-rates[int(i)]))
	}
	t.Logf("%s best rate: median %.1f %%, quartiles %.1f–%.1f %%, min %.2f %%; below 61 %%: %v; %s hit on %d/%d; minus %s, in points per seed: %.1f, pooled rates differ: %v",
		row.rung, quantile(0.5), quantile(0.25), quantile(0.75), 100*stats.Summarize(rates).Min, below, row.next, nextHit, len(seeds),
		opt.DefaultEngine, diffs, stats.RatesDiffer(hits, sims, baseHits, baseSims))
}

func finalPhase(res *Result, phase string) *coverage.Counts {
	return res.Reports[len(res.Reports)-1].Phase(phase).Counts
}

// ladder returns a family figure's model and rungs, shallowest first.
func ladder(fig string) (*coverage.Model, []int) {
	unit, family := duv.DUV(iounit.New()), iounit.FamilyName
	if fig == "fig4" {
		unit, family = l3cache.New(), l3cache.FamilyName
	}
	fam, _ := unit.Model().Family(family)
	return unit.Model(), fam
}

// deeper is claim 1: the best phase reaches a rung as deep as the corpus's.
func deeper(row claimRow, res *Result) (bool, string) {
	_, fam := ladder(row.fig)
	best, before := 0, 0
	for i, id := range fam {
		if finalPhase(res, "best").Hits(id) > 0 {
			best = i + 1
		}
		if finalPhase(res, "before").Hits(id) > 0 {
			before = i + 1
		}
	}
	return best >= before, fmt.Sprintf("best reaches rung %d, corpus %d", best, before)
}

// wellHit is claim 3: the rung ends well-hit in the best phase.
func wellHit(row claimRow, res *Result) (bool, string) {
	m, _ := ladder(row.fig)
	id, c := m.MustLookup(row.rung), finalPhase(res, "best")
	return c.Status(id) == coverage.StatusWell, fmt.Sprintf("%s %.2f %% (%d hits)", row.rung, 100*c.HitRate(id), c.Hits(id))
}

// descending is claim 4: in every phase, hits do not rise down the ladder.
func descending(row claimRow, res *Result) (bool, string) {
	m, fam := ladder(row.fig)
	for _, p := range res.Reports[len(res.Reports)-1].Phases {
		for i := 1; i < len(fam); i++ {
			if up, down := p.Counts.Hits(fam[i-1]), p.Counts.Hits(fam[i]); down > up {
				return false, fmt.Sprintf("%s: %s %d hits, %s %d", p.Name, m.Name(fam[i]), down, m.Name(fam[i-1]), up)
			}
		}
	}
	return true, "no phase rises"
}

// crossIDs are Fig. 5's events in EventNames order; entry7 the positions at entry 7.
var crossIDs, entry7 = func() (ids, entry7 []int) {
	unit := ifu.New()
	for i, name := range unit.Cross().EventNames() {
		ids = append(ids, unit.Model().MustLookup(name))
		if coords, _ := unit.Cross().Coords(name); coords[0] == 7 && unit.Cross().Dims[0].Name == "entry" {
			entry7 = append(entry7, i)
		}
	}
	return ids, entry7
}()

// samplingUncovers is claim 2: sampling leaves fewer never-hit events.
func samplingUncovers(_ claimRow, res *Result) (bool, string) {
	byPhase := StatusCountsByPhase(res.Reports[0], crossIDs)
	s, b := byPhase["sampling"][coverage.StatusNever], byPhase["before"][coverage.StatusNever]
	return s < b, fmt.Sprintf("never-hit: sampling %d, corpus %d", s, b)
}

// onlyEntry7Unhit is claim 5: the events the best phase never hits are
// exactly the 32 entry-7 events, by position, and the figure says so.
func onlyEntry7Unhit(_ claimRow, res *Result) (bool, string) {
	var never []int
	for i, id := range crossIDs {
		if finalPhase(res, "best").Hits(id) == 0 {
			never = append(never, i)
		}
	}
	ok := len(entry7) == 32 && slices.Equal(never, entry7) && strings.Contains(res.Text, "entry7 events still uncovered: 32/32")
	return ok, fmt.Sprintf("best never hits cross events %v", never)
}

// climbs is claim 6: the climbing round's last iteration beats its first.
func climbs(_ claimRow, res *Result) (bool, string) {
	p := climbingReport(res.Reports).Progress
	first, last := p[0].Best, p[len(p)-1].Best
	return last > first, fmt.Sprintf("iteration 1 best %.4f, iteration %d best %.4f", first, len(p), last)
}
