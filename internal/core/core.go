// Package core orchestrates the paper's end-to-end pipeline: parse the query
// log into ASTs, build the initial difftree, search the space of difftrees
// (transformation rules as moves, best-of-k random widget assignments as
// the reward), and finally enumerate widget trees for the best difftree to
// extract the lowest-cost interface.
//
// The search is anytime and pluggable: Generate takes a context.Context
// (cancellation and deadlines end the search promptly with the best
// interface found so far), Options.Strategy selects the exploration policy
// (MCTS by default; beam, greedy, random, and exhaustive via the Strategy
// constructors), and Options.Progress streams best-so-far snapshots while
// the search runs.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/assign"
	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/mcts"
	"repro/internal/rules"
	"repro/internal/search"
)

// Options tunes interface generation; the zero value is filled with the
// paper's defaults.
type Options struct {
	// Screen is the output screen constraint (default layout.Wide).
	Screen layout.Screen
	// Iterations bounds MCTS iterations (default 60; ignored when
	// TimeBudget is set and Iterations == 0).
	Iterations int
	// TimeBudget bounds wall-clock search time (the paper runs ~1 minute).
	TimeBudget time.Duration
	// RolloutDepth bounds random walks. The paper allows up to 200 steps;
	// the default here is 16, which the rollout-depth ablation (experiment
	// id ablation-rollout) shows already saturates quality on the paper's
	// logs at a fraction of the cost. Set 200 to mirror the paper exactly.
	RolloutDepth int
	// RewardSamples is k, the number of random widget assignments scored per
	// state during search (default 5).
	RewardSamples int
	// ExplorationC is the UCT exploration constant (default √2).
	ExplorationC float64
	// EnumLimit caps the final widget-tree enumeration (default 20000).
	EnumLimit int
	// Seed makes generation deterministic (default 1).
	Seed int64
	// EvalSeed seeds per-state reward sampling in the evaluation engine
	// (default: Seed). State costs are pure functions of (state, EvalSeed),
	// so GenerateParallel keeps EvalSeed at the base seed across workers —
	// letting them share one transposition cache — while perturbing Seed to
	// diversify their search policies.
	EvalSeed int64
	// Cache is the shared transposition cache backing the memoized
	// evaluation engine. Nil means a private cache per Generate call
	// (GenerateParallel shares one across its workers). Pass the same cache
	// to successive calls to reuse state evaluations across searches with
	// the same log, screen, and seeds.
	Cache *eval.Cache
	// WarmStart, when non-nil, seeds the search at this difftree instead of
	// the log's initial state — the incremental-serving hook: a session that
	// appends queries to its log restarts the search from its previous best
	// interface rather than from scratch. The warm tree is used only if it
	// is a legal state for the *current* log (it still expresses every
	// query, including the appended ones, and fits the size cap derived from
	// the fresh initial state); otherwise it is ignored and the search runs
	// cold. Stats.WarmStarted reports which happened. The initial state
	// keeps its other roles either way (size cap, Stats.InitialFan, the
	// Initial cost reference).
	WarmStart *difftree.Node
	// SearchTree, when non-nil, seeds the MCTS strategy with the search tree
	// persisted by a previous run (Result.SearchTree), typically
	// alongside WarmStart on a session append: if the warm root occurs in
	// the reused tree, the search re-roots there and keeps the subtree's
	// visit statistics instead of rebuilding the tree from scratch
	// (Stats.ReRooted reports it; reconciliation semantics in mcts.Config).
	// The search takes the tree over, so one tree seeds one search.
	// Non-MCTS strategies ignore it and persist nothing.
	SearchTree *mcts.Tree
	// SkipInitialRef leaves Result.Initial zero and Stats.InitialFan
	// unset, skipping the extraction pass and move enumeration that exist
	// only to report the unsearched initial state's quality. Serving hot
	// paths set this: with a warm start the search never visits the
	// initial state, so the reference would be recomputed from scratch on
	// every request just to be discarded.
	SkipInitialRef bool
	// DisableMemo turns the evaluation engine's memoization off entirely:
	// every state is re-scored, re-validated, and re-enumerated on every
	// visit. Results are identical for a fixed seed — only slower; the
	// bench harness uses this as its reference baseline.
	DisableMemo bool
	// NavUnit is the Steiner-edge navigation cost (default 0.3).
	NavUnit float64
	// Rules is the transformation rule set (default rules.All()).
	Rules []rules.Rule
	// Strategy selects the search procedure (default StrategyMCTS()).
	Strategy Strategy
	// TreeWorkers is how many goroutines run the MCTS search on its one
	// tree, diversified by virtual loss, all draining their leaf
	// evaluations through the shared transposition cache. One (the
	// default; <= 1 means one) is bit-identical per seed; more trade that
	// reproducibility for iterations/sec (only the quality envelope is
	// pinned). Orthogonal to GenerateParallel's root parallelization: each
	// root worker runs TreeWorkers goroutines. Non-MCTS strategies ignore
	// it.
	TreeWorkers int
	// Progress, when non-nil, receives anytime snapshots while the search
	// runs. Under GenerateParallel the callback is serialized across
	// workers; each snapshot carries its worker index.
	Progress func(Progress)
}

// Result is a generated interface plus search diagnostics.
type Result struct {
	DiffTree *difftree.Node // best difftree found
	UI       *layout.Node   // lowest-cost widget tree for it
	Cost     cost.Breakdown // its cost breakdown
	Initial  cost.Breakdown // cost of the initial state's best interface
	Stats    Stats          // search statistics
	Log      []*ast.Node    // the input log (parsed)
	// SearchTree is the MCTS tree this search built (nil for non-MCTS
	// strategies). Feed it back through Options.SearchTree on the next
	// warm-started call over the same session to re-root instead of
	// rebuilding. It retains every state the search materialized; keep only
	// the latest.
	SearchTree *mcts.Tree
}

// Stats summarizes the search.
type Stats struct {
	Strategy       string // strategy that produced the result
	Iterations     int    // MCTS iterations; objective evaluations otherwise
	Expanded       int    // expanded nodes (states visited for non-MCTS)
	Rollouts       int    // random walks (MCTS only)
	Evals          int    // cost evaluations
	BestReward     float64
	InitialFan     int  // fanout (legal moves) of the initial state
	EnumComplete   bool // final widget-tree enumeration was exhaustive
	SpaceExhausted bool // StrategyExhaustive swept the entire space
	Interrupted    bool // the context ended the search before its budget
	WarmStarted    bool // the search was seeded from Options.WarmStart
	ReRooted       bool // the MCTS tree was reused via Options.SearchTree
	Workers        int  // root-parallel workers that contributed
	TreeWorkers    int  // goroutines sharing each search tree
	Elapsed        time.Duration
	// CacheHits/CacheMisses/CacheEntries snapshot the evaluation engine's
	// transposition cache at the end of the search (all zero with
	// DisableMemo). With a caller-provided shared cache the counters are
	// cumulative across every search the cache served.
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int64
	// CacheHitRate is CacheHits/(CacheHits+CacheMisses), 0 when unused.
	CacheHitRate float64
	// Trajectory is the best-so-far cost curve: one point per improvement,
	// costs monotone non-increasing. Under GenerateParallel it is the
	// winning worker's curve.
	Trajectory []TrajectoryPoint
}

// Generate runs the full pipeline on parsed query ASTs. It is an anytime
// call: when ctx is cancelled or its deadline passes mid-search, the best
// interface found so far is extracted and returned (with Stats.Interrupted
// set) rather than an error. A nil ctx is treated as context.Background().
func Generate(ctx context.Context, log []*ast.Node, opt Options) (*Result, error) {
	return generate(ctx, log, opt, 0)
}

// generate is Generate plus the worker index used by GenerateParallel's
// progress snapshots.
func generate(ctx context.Context, log []*ast.Node, opt Options, worker int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if len(log) == 0 {
		return nil, errors.New("core: empty query log")
	}
	init, err := difftree.Initial(log)
	if err != nil {
		return nil, err
	}

	model := cost.Model{NavUnit: opt.NavUnit, Screen: opt.Screen}
	eng := newEngine(log, init, model, opt)
	p := newProblem(log, init, model, opt, eng, worker)
	if opt.WarmStart != nil && eng.LegalState(opt.WarmStart) {
		// Warm start: the previous best interface is still a legal state for
		// this (possibly extended) log, so the search resumes from it.
		p.root = opt.WarmStart
	}

	res := opt.Strategy.search(ctx, p)
	best := res.best

	// Final extraction: enumerate all widget trees for the best difftree
	// (sampling beyond the cap) and keep the argmin. When the search ended
	// on the initial state — e.g. a context cancelled before the first
	// iteration — one extraction serves as both the result and the
	// initial-state reference, halving the post-cancellation work.
	ui, bd, complete := BestInterface(best, log, model, opt.EnumLimit, opt.Seed)

	initBD := bd
	if opt.SkipInitialRef {
		initBD = cost.Breakdown{}
	} else if difftree.Hash(best) != difftree.Hash(init) {
		_, initBD, _ = BestInterface(init, log, model, opt.EnumLimit, opt.Seed)
	}

	stats := res.stats
	if !opt.SkipInitialRef {
		// For cold searches the engine already enumerated (and memoized)
		// the initial state's legal move set during the search, so this is
		// a cache hit; a warm-started search may compute it here. Either
		// way InitialFan stays consistent with the size-capped moves every
		// strategy actually sees.
		stats.InitialFan = len(eng.Moves(init))
	}
	stats.EnumComplete = complete
	stats.WarmStarted = p.root != p.init
	stats.Workers = 1
	if stats.TreeWorkers == 0 {
		stats.TreeWorkers = 1 // non-MCTS strategies always run sequentially
	}
	//mctsvet:allow wallclock -- Elapsed is observability reported in Stats; it never influences the search result
	stats.Elapsed = time.Since(p.start)
	cs := eng.CacheStats()
	stats.CacheHits, stats.CacheMisses, stats.CacheEntries = cs.Hits, cs.Misses, cs.Entries
	stats.CacheHitRate = cs.HitRate()
	// Close the trajectory with the extraction result, which can undercut
	// the search-time estimate (it enumerates far more assignments).
	if c := bd.Total(); c < p.bestCost && !math.IsInf(c, 1) {
		p.traj = append(p.traj, TrajectoryPoint{Evals: p.evals, Elapsed: stats.Elapsed, Cost: c})
	}
	stats.Trajectory = p.traj

	out := &Result{
		DiffTree:   best,
		UI:         ui,
		Cost:       bd,
		Initial:    initBD,
		Log:        log,
		Stats:      stats,
		SearchTree: res.tree,
	}
	return out, nil
}

// BestInterface enumerates (or samples past the cap) the widget trees of a
// difftree and returns the cheapest, with its breakdown and whether the
// enumeration was exhaustive.
func BestInterface(d *difftree.Node, log []*ast.Node, model cost.Model, enumLimit int, seed int64) (*layout.Node, cost.Breakdown, bool) {
	plan, err := assign.BuildPlan(d)
	if err != nil {
		return nil, cost.Breakdown{Valid: false, Reason: err.Error()}, true
	}
	ev := model.NewEvaluator(d, log)
	if !d.HasChoice() {
		return nil, ev.Evaluate(nil), true
	}

	var bestUI *layout.Node
	bestBD := cost.Breakdown{Valid: false, Reason: "no assignment evaluated"}
	bestC := math.Inf(1)
	consider := func(ui *layout.Node) {
		bd := ev.Evaluate(ui)
		if c := bd.Total(); c < bestC {
			bestC, bestBD, bestUI = c, bd, ui
		}
	}

	complete := plan.Enumerate(enumLimit, func(ui *layout.Node) bool {
		consider(ui)
		return true
	})
	if !complete {
		// The space exceeds the cap: top up with random samples.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < enumLimit/2; i++ {
			consider(plan.Random(rng))
		}
	}
	if bestUI == nil {
		return nil, cost.Breakdown{Valid: false, Reason: "no widget tree found"}, complete
	}
	return bestUI, bestBD, complete
}

// newEngine builds the evaluation engine for one generate call: the
// memoized (or, with DisableMemo, recomputing) source of state costs,
// legality verdicts, and move sets that every strategy shares. Costs are
// seeded per state from EvalSeed, so two engines with equal configs agree
// on every value — the basis for sharing Options.Cache across workers and
// successive calls.
func newEngine(log []*ast.Node, init *difftree.Node, model cost.Model, opt Options) *eval.Engine {
	cache := opt.Cache
	if cache == nil && !opt.DisableMemo {
		cache = eval.NewCache(0)
	}
	if opt.DisableMemo {
		cache = nil
	}
	return eval.New(eval.Config{
		Log:     log,
		Model:   model,
		Samples: opt.RewardSamples,
		Rules:   opt.Rules,
		SizeCap: search.SizeCap(init),
		Seed:    opt.EvalSeed,
	}, cache)
}

// state adapts a difftree to mcts.State.
type state struct {
	d *difftree.Node
	h uint64
}

// Hash implements mcts.State.
func (s state) Hash() uint64 { return s.h }

// domain adapts the difftree space to mcts.Domain + mcts.Sampler, backed by
// the shared evaluation engine for moves and by the problem's run-local cost
// memo for rewards. Neighbor *states* are deliberately not memoized: the
// engine caches the move sets (the expensive part), and rebuilding the
// successor trees on demand is cheap — a previous per-run neighbor-state
// memo retained tens of thousands of materialized trees, and the GC mark
// cost of that pointer-dense heap was a large share of the cold-cache
// slowdown.
type domain struct {
	eng     *eval.Engine
	ruleSet []rules.Rule
	p       *problem // cost memo and bookkeeping; nil when nothing is scored
	scale   float64  // reward normalization: the initial state's cost
}

// newDomain builds the MCTS domain over p. The reward scale is read from the
// engine directly, so it is not counted as a search evaluation.
func newDomain(p *problem) *domain {
	d := &domain{eng: p.eng, ruleSet: p.opt.Rules, p: p, scale: 10}
	if c := p.eng.StateCost(p.init); !math.IsInf(c, 1) && c > 0 {
		d.scale = c
	}
	return d
}

// Neighbors implements mcts.Domain: the engine's (memoized) legal move set,
// applied. Successor trees are rebuilt on demand — content-identical each
// time (states are keyed by structural hash everywhere), so not retaining
// them trades a little rebuild work for a much smaller retained heap.
func (d *domain) Neighbors(s mcts.State) []mcts.State {
	st := s.(state)
	ts := d.eng.Neighbors(st.d)
	out := make([]mcts.State, 0, len(ts))
	for _, t := range ts {
		out = append(out, state{d: t, h: difftree.Hash(t)})
	}
	return out
}

// spinePool recycles copy-on-write spine arenas for rollout candidates,
// almost all of which fail the legality probe and are discarded.
var spinePool = sync.Pool{New: func() any { return new(difftree.SpineArena) }}

// RandomNeighbor implements mcts.Sampler: it draws random (rule, node)
// candidates — restricted to node kinds the rule can match — and returns the
// first legal rewrite, falling back to the full move set when unlucky. This
// keeps rollouts cheap relative to full neighbor enumeration. Candidate
// pools are assembled in fixed Kind order, and the draw sequence never
// consults the memoization state, so the sampled walk is a pure function of
// (state, rng stream): cached and uncached runs take identical
// trajectories, the cache only answers the legality probes faster.
// Candidates are built on a pooled spine arena; the accepted one is rebuilt
// on the heap (consuming no rng draws), since arena trees must not become
// retained search states.
func (d *domain) RandomNeighbor(s mcts.State, rng *rand.Rand) (mcts.State, bool) {
	st := s.(state)
	cur := st.d
	byKind := d.eng.PathPools(cur)
	arena := spinePool.Get().(*difftree.SpineArena)
	defer func() {
		arena.Reset()
		spinePool.Put(arena)
	}()
	const tries = 48
	for i := 0; i < tries; i++ {
		r := d.ruleSet[rng.Intn(len(d.ruleSet))]
		kinds := rules.MatchKinds[r.Name()]
		// The candidate pool is the concatenation, in fixed Kind order, of
		// the per-kind path pools this rule can match; index into the
		// segments instead of materializing it.
		total := 0
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds == nil || kinds[k] {
				total += len(byKind[k])
			}
		}
		if total == 0 {
			continue
		}
		idx := rng.Intn(total)
		var p difftree.Path
		for k := difftree.All; k <= difftree.Multi; k++ {
			if kinds != nil && !kinds[k] {
				continue
			}
			if idx < len(byKind[k]) {
				p = byKind[k][idx]
				break
			}
			idx -= len(byKind[k])
		}
		arena.Reset()
		next, ok := rules.CandidateArena(cur, p, r, arena)
		if !ok {
			continue
		}
		if !d.eng.LegalState(next) {
			continue
		}
		kept, ok := rules.Candidate(cur, p, r)
		if !ok {
			continue
		}
		return state{d: kept, h: difftree.Hash(kept)}, true
	}
	ns := d.Neighbors(s)
	if len(ns) == 0 {
		return nil, false
	}
	return ns[rng.Intn(len(ns))], true
}

// Reward implements mcts.Domain: 1/(1 + cost/scale), so the initial state
// scores 0.5 and better interfaces approach 1. Costs come from the
// problem's run-local memo over the engine (deterministic per state).
func (d *domain) Reward(s mcts.State) float64 {
	st := s.(state)
	c := d.p.stateCost(st.d, st.h, false)
	if math.IsInf(c, 1) {
		return 0
	}
	return 1.0 / (1.0 + c/d.scale)
}

// Fanout counts the legal moves of a difftree (the paper reports fanouts up
// to ~50 on the SDSS log).
func Fanout(d *difftree.Node, log []*ast.Node, set []rules.Rule) int {
	return len(rules.Moves(d, log, set))
}

// RandomWalk performs n random legal moves from the initial state and
// returns the resulting difftree; used to produce the paper's Figure 6(d)
// "low reward interface" without search.
func RandomWalk(log []*ast.Node, steps int, seed int64) (*difftree.Node, error) {
	init, err := difftree.Initial(log)
	if err != nil {
		return nil, err
	}
	eng := eval.New(eval.Config{
		Log:     log,
		Rules:   rules.All(),
		SizeCap: 4*init.Size() + 64,
	}, eval.NewCache(0))
	d := &domain{eng: eng, ruleSet: rules.All()}
	rng := rand.New(rand.NewSource(seed))
	cur := state{d: init, h: difftree.Hash(init)}
	for i := 0; i < steps; i++ {
		next, ok := d.RandomNeighbor(cur, rng)
		if !ok {
			break
		}
		cur = next.(state)
	}
	return cur.d, nil
}

// Describe renders a one-line summary of a result for logs and examples.
func (r *Result) Describe() string {
	return fmt.Sprintf("cost=%.2f (M=%.2f U=%.2f) widgets=%d bounds=%dx%d iters=%d evals=%d",
		r.Cost.Total(), r.Cost.M, r.Cost.U, r.Cost.Widgets,
		r.Cost.Bounds.W, r.Cost.Bounds.H, r.Stats.Iterations, r.Stats.Evals)
}
