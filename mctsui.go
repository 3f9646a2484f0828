// Package mctsui generates interactive data-analysis interfaces from SQL
// query logs using Monte Carlo Tree Search, reproducing Chen & Wu,
// "Monte Carlo Tree Search for Generating Interactive Data Analysis
// Interfaces" (2020).
//
// Given a sequence of SQL queries that are part of an analysis task, the
// library extracts their syntactic differences into a difftree, searches the
// space of difftree transformations with MCTS, and returns the lowest-cost
// interactive interface: a hierarchy of layout widgets (vertical/horizontal
// boxes, tabs, adders) and interaction widgets (dropdowns, radio buttons,
// sliders, toggles, ...) that can express every query in the log — and
// usually a generalization of them.
//
// The entry point is the Generator, an anytime, context-aware engine:
//
//	gen := mctsui.New(
//	    mctsui.WithScreen(mctsui.WideScreen),
//	    mctsui.WithTimeBudget(time.Minute),            // the paper's budget
//	    mctsui.WithProgress(func(p mctsui.Progress) {  // best-so-far snapshots
//	        fmt.Printf("iter %d: cost %.2f\n", p.Iterations, p.BestCost)
//	    }),
//	)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	iface, err := gen.Generate(ctx, []string{
//	    "SELECT Sales FROM sales WHERE cty = USA",
//	    "SELECT Costs FROM sales WHERE cty = EUR",
//	    "SELECT Costs FROM sales",
//	})
//	if err != nil { ... }
//	fmt.Println(iface.ASCII())      // render the widget tree
//	sess := iface.NewSession()      // drive it interactively
//	fmt.Println(sess.SQL())         // the current query
//
// Cancelling the context (or hitting its deadline) stops the search
// promptly and yields the best interface found so far — generation never
// fails just because time ran out. WithStrategy swaps the paper's MCTS for
// beam, greedy, random, or exhaustive search, and WithWorkers runs
// root-parallel searches. The package-level Generate and GenerateFromASTs
// functions are deprecated one-shot shims over the same engine.
package mctsui

import (
	"context"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/difftree"
	"repro/internal/layout"
	"repro/internal/sqlparser"
)

// Screen is the output screen constraint in layout units (≈ pixels).
type Screen = layout.Screen

// Screen presets matching the paper's Figure 6(a) and 6(b).
var (
	WideScreen   = layout.Wide
	NarrowScreen = layout.Narrow
)

// Config tunes the deprecated one-shot Generate/GenerateFromASTs shims.
// The zero value uses wide screen, UCT with c = √2, rollouts up to
// DefaultRolloutDepth steps, DefaultRewardSamples random widget assignments
// per reward, and DefaultIterations search iterations (all defined once in
// the engine and re-exported by this package).
//
// Deprecated: configure a Generator with functional options instead —
// mctsui.New(mctsui.WithScreen(...), ...).
type Config struct {
	// Screen is the output constraint; interfaces that do not fit are
	// discarded as invalid. Default WideScreen.
	Screen Screen
	// Iterations bounds the MCTS iteration count. Default 60.
	Iterations int
	// TimeBudget, when set, bounds wall-clock search time instead (the
	// paper runs ~1 minute per interface).
	TimeBudget time.Duration
	// Seed makes generation deterministic. Default 1.
	Seed int64
	// RolloutDepth bounds random walks during search. The paper allows up
	// to 200; the default of 16 already saturates quality on the paper's
	// logs (see the rollout-depth ablation: `go run ./cmd/experiments -run
	// ablation-rollout`).
	RolloutDepth int
	// RewardSamples is k, the random widget assignments scored per state.
	// Default 5.
	RewardSamples int
	// ExplorationC is the UCT exploration constant. Default √2.
	ExplorationC float64
	// Workers > 1 runs that many independent searches in parallel with
	// distinct seeds and keeps the best interface (root parallelization,
	// the paper's suggested optimization for interactive run-times).
	Workers int
}

// Interface is a generated interactive interface.
type Interface struct {
	res     *core.Result
	cooccur map[pairKey]bool // lazily built log co-occurrence index
}

// options converts the legacy Config into Generator options.
func (c Config) options() []Option {
	return []Option{
		WithScreen(c.Screen),
		WithIterations(c.Iterations),
		WithTimeBudget(c.TimeBudget),
		WithSeed(c.Seed),
		WithRolloutDepth(c.RolloutDepth),
		WithRewardSamples(c.RewardSamples),
		WithExplorationC(c.ExplorationC),
		WithWorkers(c.Workers),
	}
}

// Generate parses the query log (one SQL string per entry) and runs the
// full pipeline.
//
// Deprecated: Generate is the v0 blocking one-shot call. Use the
// context-aware Generator — New(opts...).Generate(ctx, queries) — which
// adds cancellation, deadlines, progress snapshots, and pluggable search
// strategies. This shim is equivalent to
// New(cfg options...).Generate(context.Background(), queries).
func Generate(queries []string, cfg Config) (*Interface, error) {
	return New(cfg.options()...).Generate(context.Background(), queries)
}

// GenerateFromASTs runs the pipeline on pre-parsed queries (see the
// internal/sqlparser and internal/workload packages).
//
// Deprecated: use New(opts...).GenerateFromASTs(ctx, log) for the same
// reasons as Generate.
func GenerateFromASTs(log []*ast.Node, cfg Config) (*Interface, error) {
	return New(cfg.options()...).GenerateFromASTs(context.Background(), log)
}

// Cost returns the interface's total cost C(W,Q); +Inf if no valid
// interface was found.
func (f *Interface) Cost() float64 { return f.res.Cost.Total() }

// CostBreakdown returns (M, U): widget appropriateness and transition
// effort.
func (f *Interface) CostBreakdown() (m, u float64) { return f.res.Cost.M, f.res.Cost.U }

// Valid reports whether a screen-fitting interface expressing every log
// query was found.
func (f *Interface) Valid() bool { return f.res.Cost.Valid }

// NumWidgets returns the number of interaction widgets.
func (f *Interface) NumWidgets() int { return f.res.Cost.Widgets }

// Bounds returns the interface bounding box (width, height).
func (f *Interface) Bounds() (w, h int) {
	return f.res.Cost.Bounds.W, f.res.Cost.Bounds.H
}

// ASCII renders the widget tree as text.
func (f *Interface) ASCII() string {
	if f.res.UI == nil {
		return "(static interface: the log contains a single distinct query)\n"
	}
	return layout.RenderASCII(f.res.UI)
}

// HTML renders the widget tree as an HTML fragment.
func (f *Interface) HTML() string {
	if f.res.UI == nil {
		return "<div class=\"generated-interface\"></div>\n"
	}
	return layout.RenderHTML(f.res.UI)
}

// DiffTree renders the underlying difftree in the paper's notation.
func (f *Interface) DiffTree() string { return f.res.DiffTree.String() }

// Describe summarizes the interface and its search statistics in one line.
func (f *Interface) Describe() string { return f.res.Describe() }

// Stats exposes the final search diagnostics: strategy, iteration and
// evaluation counters, whether the search was interrupted by its context,
// the best-so-far cost trajectory (Stats.Trajectory, monotone
// non-increasing in cost), and the evaluation engine's transposition-cache
// metrics (Stats.CacheHits / CacheMisses / CacheHitRate — zero when the
// cache was disabled with WithoutCache).
func (f *Interface) Stats() Stats { return f.res.Stats }

// SearchStats exposes the search diagnostics.
//
// Deprecated: use Stats.
func (f *Interface) SearchStats() Stats { return f.res.Stats }

// SearchTree returns the MCTS search tree this generation persisted, for
// feeding back through WithSearchTree on the next generation over an
// appended log (see that option for the re-rooting contract). It is nil
// unless the interface came from an MCTS search.
func (f *Interface) SearchTree() *SearchTree {
	if f.res.SearchTree == nil {
		return nil
	}
	return &SearchTree{t: f.res.SearchTree}
}

// InitialCost returns the best cost achievable at the unsearched initial
// state (the paper's Figure 2(a)-style interface); the gap to Cost()
// measures what the search bought.
func (f *Interface) InitialCost() float64 { return f.res.Initial.Total() }

// Queries enumerates up to limit distinct SQL queries the interface can
// express — typically a superset of the input log.
func (f *Interface) Queries(limit int) []string {
	qs := difftree.EnumerateQueries(f.res.DiffTree, limit, 4)
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = sqlparser.Render(q)
	}
	return out
}

// CanExpress reports whether the interface can express the given SQL query.
func (f *Interface) CanExpress(query string) (bool, error) {
	q, err := sqlparser.Parse(query)
	if err != nil {
		return false, err
	}
	return difftree.Expressible(f.res.DiffTree, q), nil
}
