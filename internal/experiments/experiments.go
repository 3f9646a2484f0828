// Package experiments regenerates every figure and claim of the paper's
// evaluation. Each experiment is a row of Index: an id and a runner that
// returns a plain-text report, or the report so far and the error that
// stopped it. cmd/experiments prints them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/assign"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/widgets"
	"repro/internal/workload"
)

// Config tunes experiment scale.
type Config struct {
	Iterations   int   // MCTS iterations per generated interface
	RolloutDepth int   // rollout cap (paper: 200)
	Seed         int64 // base seed
}

// Default returns the settings cmd/experiments runs with.
func Default() Config { return Config{Iterations: 40, RolloutDepth: 12, Seed: 1} }

func (c Config) opts(screen layout.Screen) core.Options {
	return core.Options{
		Screen:       screen,
		Iterations:   c.Iterations,
		RolloutDepth: c.RolloutDepth,
		Seed:         c.Seed,
	}
}

// Experiment is one row of the index.
type Experiment struct {
	ID  string
	Run func(context.Context, Config) (string, error)
}

// Index lists every experiment in run order. Named, All and the ids
// cmd/experiments accepts derive from it.
var Index = []Experiment{
	{"fig6a", figure("Figure 6(a): all SDSS queries, wide screen", workload.SDSSLog(), layout.Wide)},
	{"fig6b", figure("Figure 6(b): all SDSS queries, narrow screen", workload.SDSSLog(), layout.Narrow)},
	{"fig6c", figure("Figure 6(c): SDSS queries 6-8, wide screen", workload.SDSSSubset(6, 8), layout.Wide)},
	{"fig6d", Fig6d},
	{"fig6e", Fig6e},
	{"space", SearchSpace},
	{"budget", BudgetSweep},
	{"baseline", BaselineCompare},
	{"strategies", Strategies},
	{"ablation-c", AblationC},
	{"ablation-rollout", AblationRollout},
	{"scaling", Scaling},
}

// figure generates one Figure 6 interface for log on screen.
func figure(title string, log []*ast.Node, screen layout.Screen) func(context.Context, Config) (string, error) {
	return func(ctx context.Context, cfg Config) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "== %s ==\n", title)
		res, err := core.Generate(ctx, log, cfg.opts(screen))
		if err != nil {
			return b.String(), err
		}
		b.WriteString(layout.RenderASCII(res.UI))
		fmt.Fprintf(&b, "cost=%.2f (M=%.2f U=%.2f) widgets=%d bounds=%dx%d screen=%s\n",
			res.Cost.Total(), res.Cost.M, res.Cost.U, res.Cost.Widgets,
			res.Cost.Bounds.W, res.Cost.Bounds.H, screen)
		fmt.Fprintf(&b, "initial-state cost=%.2f  improvement=%.1f%%\n",
			res.Initial.Total(), 100*(1-res.Cost.Total()/res.Initial.Total()))
		fmt.Fprintf(&b, "widget mix: %s\n", widgetMix(res.UI))
		return b.String(), nil
	}
}

func widgetMix(ui *layout.Node) string {
	if ui == nil {
		return "(none)"
	}
	counts := map[string]int{}
	var order []string
	for _, w := range ui.Widgets() {
		k := w.Type.String()
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s x%d", k, counts[k]))
	}
	return strings.Join(parts, ", ")
}

// Fig6d contrasts searched interfaces with unsearched random-walk states
// (the paper's "low reward interface ... poor interface choices are easily
// possible").
func Fig6d(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Figure 6(d): low-reward (unsearched) interfaces ==\n")
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)

	res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
	if err != nil {
		return b.String(), err
	}
	fmt.Fprintf(&b, "searched (MCTS %d iters): cost=%.2f\n", cfg.Iterations, res.Cost.Total())

	for _, steps := range []int{2, 5, 10} {
		const seeds = 5
		worst, sum := 0.0, 0.0
		for seed := int64(0); seed < seeds; seed++ {
			d, err := core.RandomWalk(log, steps, cfg.Seed+seed*17)
			if err != nil {
				return b.String(), err
			}
			_, bd, _ := core.BestInterface(d, log, model, 2000, cfg.Seed)
			c := bd.Total()
			if math.IsInf(c, 1) {
				c = 250 // report invalid states at a large finite sentinel
			}
			if c > worst {
				worst = c
			}
			sum += c
		}
		fmt.Fprintf(&b, "random walk %2d steps (%d seeds): mean cost=%.2f worst=%.2f\n",
			steps, seeds, sum/seeds, worst)
	}
	return b.String(), nil
}

// Fig6e scores a hand-coded replica of the original SDSS search form (all
// textboxes and radio buttons in a flat column, as in the paper's Figure
// 6(e)) under the same cost model, for reference.
func Fig6e(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Figure 6(e): original SDSS form (hand-coded reference) ==\n")
	log := workload.SDSSLog()
	model := cost.Default(layout.Wide)

	base, err := baseline.Build(log, model)
	if err != nil {
		return b.String(), err
	}
	// Rebuild the baseline's flat UI with the SDSS form's widget choices:
	// textboxes for every scalar, radio buttons for categorical slots.
	var ws []*layout.Node
	var walk func(n, parent *difftree.Node)
	walk = func(n, parent *difftree.Node) {
		if n.Kind.IsChoice() {
			dom := assign.DomainOf(n, parent)
			t := widgets.Textbox
			if !dom.Scalar || widgets.IsInf(widgets.Appropriateness(widgets.Textbox, dom)) {
				t = widgets.Radio
			}
			if widgets.IsInf(widgets.Appropriateness(t, dom)) {
				t = widgets.Dropdown
			}
			ws = append(ws, layout.NewWidget(t, dom, n))
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(base.DiffTree, nil)
	form := layout.NewBox(widgets.VBox, ws...)
	bd := model.NewEvaluator(base.DiffTree, log).Evaluate(form)

	res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
	if err != nil {
		return b.String(), err
	}
	fmt.Fprintf(&b, "SDSS-form-style (textboxes+radios, flat): cost=%.2f (M=%.2f U=%.2f) widgets=%d\n",
		bd.Total(), bd.M, bd.U, bd.Widgets)
	fmt.Fprintf(&b, "generated (MCTS):                        cost=%.2f (M=%.2f U=%.2f) widgets=%d\n",
		res.Cost.Total(), res.Cost.M, res.Cost.U, res.Cost.Widgets)
	return b.String(), nil
}

// SearchSpace measures the paper's search-space characterization: "The
// fanout is as high as 50, and a search path can be as long as 100 steps."
func SearchSpace(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Search space (paper: fanout up to ~50, paths up to ~100 steps) ==\n")
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		return b.String(), err
	}
	// Walk randomly over the moves the search sees (legal and within its
	// state-size cap), recording fanout along the way and how long legal
	// paths can get.
	eng := eval.New(eval.Config{Log: log, Rules: rules.All(), SizeCap: search.SizeCap(init)}, nil)
	fan := len(eng.Moves(init))
	fmt.Fprintf(&b, "initial state: fanout=%d choices=%d size=%d\n",
		fan, init.CountChoice(), init.Size())

	maxFan, pathLen := fan, 0
	d := init
	rng := rand.New(rand.NewSource(cfg.Seed))
	for step := 0; step < 100; step++ {
		if ctx.Err() != nil {
			fmt.Fprintf(&b, "(cancelled after %d steps)\n", step)
			break
		}
		candidates := eng.Neighbors(d)
		maxFan = max(maxFan, len(candidates))
		if len(candidates) == 0 {
			break
		}
		d = candidates[rng.Intn(len(candidates))]
		pathLen++
	}
	fmt.Fprintf(&b, "random path: length>=%d (cap 100, states capped at 4x initial size), max fanout seen=%d\n", pathLen, maxFan)
	return b.String(), nil
}

// BudgetSweep traces interface cost against the search budget (the paper
// runs MCTS "for around 1 minute"; we report cost vs iterations and the
// wall-clock each took).
func BudgetSweep(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Cost vs search budget (MCTS) ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-12s %-10s %-10s %-12s\n", "iterations", "cost", "reward", "elapsed")
	for _, iters := range []int{1, 5, 10, 20, 40} {
		o := cfg.opts(layout.Wide)
		o.Iterations = iters
		start := time.Now()
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			return b.String(), fmt.Errorf("%d iterations: %w", iters, err)
		}
		fmt.Fprintf(&b, "%-12d %-10.2f %-10.3f %-12v\n",
			iters, res.Cost.Total(), res.Stats.BestReward, time.Since(start).Round(time.Millisecond))
	}
	return b.String(), nil
}

// BaselineCompare scores the 2017 bottom-up baseline against MCTS on the
// paper's logs.
func BaselineCompare(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Prior work (Zhang et al. 2017 bottom-up) vs MCTS ==\n")
	cases := []struct {
		name string
		log  []*ast.Node
	}{
		{"figure-1 (3 queries)", workload.PaperFigure1Log()},
		{"sdss (10 queries)", workload.SDSSLog()},
		{"sdss 6-8", workload.SDSSSubset(6, 8)},
		{"synthetic (20 queries)", workload.Generate(workload.GenConfig{
			Queries: 20, Tables: 3, Projections: 3, TopValues: 3,
			Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 5})},
	}
	model := cost.Default(layout.Wide)
	fmt.Fprintf(&b, "%-24s %-22s %-22s\n", "log", "baseline cost (widgets)", "mcts cost (widgets)")
	for _, c := range cases {
		base, err := baseline.Build(c.log, model)
		if err != nil {
			return b.String(), fmt.Errorf("%s: baseline: %w", c.name, err)
		}
		res, err := core.Generate(ctx, c.log, cfg.opts(layout.Wide))
		if err != nil {
			return b.String(), fmt.Errorf("%s: mcts: %w", c.name, err)
		}
		fmt.Fprintf(&b, "%-24s %-22s %-22s\n", c.name,
			fmt.Sprintf("%.2f (%d)", base.Cost.Total(), base.UI.CountWidgets()),
			fmt.Sprintf("%.2f (%d)", res.Cost.Total(), res.Cost.Widgets))
	}
	return b.String(), nil
}

// Strategies compares MCTS against random walks, greedy hill climbing, beam
// search, and (on a tiny input) exhaustive enumeration. Every strategy runs
// through the same core.Strategy plumbing the public API exposes, so this
// is also an end-to-end exercise of WithStrategy.
func Strategies(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Search strategies (same cost model and rule set) ==\n")
	log := workload.SDSSLog()

	for _, s := range []core.Strategy{
		core.StrategyMCTS(),
		core.StrategyRandom(6),
		core.StrategyGreedy(),
		core.StrategyBeam(3),
	} {
		o := cfg.opts(layout.Wide)
		o.Strategy = s
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", s.Name(), err)
		}
		fmt.Fprintf(&b, "%-12s cost=%-8.2f evals=%d\n", s.Name(), res.Cost.Total(), res.Stats.Evals)
	}

	// Exhaustive on a 2-query log (tiny space) to calibrate optimality.
	tiny := workload.PaperFigure1Log()[:2]
	exOpts := cfg.opts(layout.Wide)
	exOpts.Strategy = core.StrategyExhaustive(4000)
	exOpts.RewardSamples = 1
	ex, err := core.Generate(ctx, tiny, exOpts)
	if err != nil {
		return b.String(), fmt.Errorf("tiny log: exhaustive: %w", err)
	}
	tinyRes, err := core.Generate(ctx, tiny, cfg.opts(layout.Wide))
	if err != nil {
		return b.String(), fmt.Errorf("tiny log: mcts: %w", err)
	}
	fmt.Fprintf(&b, "tiny log (2 queries): exhaustive=%.2f (complete=%v, states=%d)  mcts=%.2f\n",
		ex.Cost.Total(), ex.Stats.SpaceExhausted, ex.Stats.Expanded, tinyRes.Cost.Total())
	return b.String(), nil
}

// AblationC sweeps the UCT exploration constant.
func AblationC(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Ablation: UCT exploration constant c ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-8s %-10s %-10s\n", "c", "cost", "reward")
	for _, c := range []float64{0.2, 0.7, math.Sqrt2, 2.5, 5} {
		o := cfg.opts(layout.Wide)
		o.ExplorationC = c
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			return b.String(), fmt.Errorf("c=%.2f: %w", c, err)
		}
		fmt.Fprintf(&b, "%-8.2f %-10.2f %-10.3f\n", c, res.Cost.Total(), res.Stats.BestReward)
	}
	return b.String(), nil
}

// AblationRollout sweeps rollout depth and the reward sample count k.
func AblationRollout(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Ablation: rollout depth and reward samples k ==\n")
	log := workload.SDSSLog()
	fmt.Fprintf(&b, "%-14s %-10s %-12s\n", "rollout depth", "cost", "elapsed")
	for _, depth := range []int{2, 6, 12, 25} {
		o := cfg.opts(layout.Wide)
		o.RolloutDepth = depth
		start := time.Now()
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			return b.String(), fmt.Errorf("rollout depth %d: %w", depth, err)
		}
		fmt.Fprintf(&b, "%-14d %-10.2f %-12v\n", depth, res.Cost.Total(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-14s %-10s\n", "k (samples)", "cost")
	for _, k := range []int{1, 3, 5, 10} {
		o := cfg.opts(layout.Wide)
		o.RewardSamples = k
		res, err := core.Generate(ctx, log, o)
		if err != nil {
			return b.String(), fmt.Errorf("k=%d: %w", k, err)
		}
		fmt.Fprintf(&b, "%-14d %-10.2f\n", k, res.Cost.Total())
	}
	return b.String(), nil
}

// Scaling sweeps the synthetic log size.
func Scaling(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Scaling with log size (synthetic generator) ==\n")
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-10s %-12s\n", "queries", "fanout", "cost", "widgets", "elapsed")
	for _, n := range []int{5, 10, 20} {
		log := workload.Generate(workload.GenConfig{
			Queries: n, Tables: 3, Projections: 3, TopValues: 3,
			Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 11})
		start := time.Now()
		res, err := core.Generate(ctx, log, cfg.opts(layout.Wide))
		if err != nil {
			return b.String(), fmt.Errorf("%d queries: %w", n, err)
		}
		fmt.Fprintf(&b, "%-10d %-10d %-10.2f %-10d %-12v\n",
			n, res.Stats.InitialFan, res.Cost.Total(), res.Cost.Widgets, time.Since(start).Round(time.Millisecond))
	}
	return b.String(), nil
}

// All runs every experiment in index order, stopping at the first error.
func All(ctx context.Context, cfg Config) (string, error) {
	var b strings.Builder
	for _, e := range Index {
		report, err := e.Run(ctx, cfg)
		b.WriteString(report)
		b.WriteByte('\n')
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return b.String(), nil
}

// Named returns the runner for an experiment id: a row of Index, or "all".
func Named(id string) (func(context.Context, Config) (string, error), bool) {
	if id == "all" {
		return All, true
	}
	for _, e := range Index {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}
