package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/mcts"
	"repro/internal/search"
)

// Strategy is a pluggable search procedure over the difftree space. MCTS
// (the paper's algorithm) and the comparator searchers from internal/search
// (beam, greedy, random, exhaustive) all implement it, so callers pick the
// exploration policy per workload — cheap strategies for huge logs,
// exhaustive enumeration for tiny ones — without leaving the one pipeline.
//
// The interface is sealed (the search method is unexported): new strategies
// are added here, next to the engine they drive.
type Strategy interface {
	// Name identifies the strategy in stats and progress snapshots.
	Name() string
	search(ctx context.Context, p *problem) searchOutcome
}

// searchOutcome is what a strategy hands back to Generate: the best
// difftree plus the search-phase half of the final Stats, and — for
// MCTS — the search tree for warm reuse.
type searchOutcome struct {
	best  *difftree.Node
	stats Stats
	tree  *mcts.Tree
}

// Progress is an anytime snapshot of a running search, delivered through
// Options.Progress. BestCost is monotone non-increasing and the counters
// monotone non-decreasing within one worker.
type Progress struct {
	Strategy   string        // strategy name ("mcts", "beam", ...)
	Worker     int           // 0-based worker index under root parallelization
	Iterations int           // MCTS iterations; objective evaluations otherwise
	States     int           // states explored
	Evals      int           // cost evaluations
	BestCost   float64       // best interface cost seen so far (+Inf if none)
	Elapsed    time.Duration // since the search started
}

// TrajectoryPoint records one best-so-far improvement: after Evals cost
// evaluations and Elapsed wall clock, the best known cost dropped to Cost.
type TrajectoryPoint struct {
	Evals   int
	Elapsed time.Duration
	Cost    float64
}

// progressStride throttles heartbeat snapshots from non-MCTS strategies
// (improvements always emit immediately).
const progressStride = 25

// problem carries everything a Strategy needs: the parsed log, the initial
// state, the cost model, resolved options, the run's cost memo, and the
// progress/trajectory plumbing. One problem serves exactly one strategy run;
// only tree-parallel MCTS reaches it from more than one goroutine.
type problem struct {
	log    []*ast.Node
	init   *difftree.Node
	root   *difftree.Node // search start state: init, or a legal WarmStart
	model  cost.Model
	opt    Options
	eng    *eval.Engine
	worker int
	start  time.Time

	// costs is the run-local cost memo, keyed by state hash; nil under
	// DisableMemo, so every visit re-scores and counts. With concurrent set
	// (TreeWorkers > 1), mu guards it and every field below.
	costs      map[uint64]float64
	concurrent bool
	mu         sync.Mutex

	iterations int
	states     int
	evals      int
	bestCost   float64
	traj       []TrajectoryPoint
}

func newProblem(log []*ast.Node, init *difftree.Node, model cost.Model, opt Options, eng *eval.Engine, worker int) *problem {
	p := &problem{
		log: log, init: init, root: init, model: model, opt: opt, eng: eng, worker: worker,
		//mctsvet:allow wallclock -- start anchors Elapsed observability in Stats/Progress; it never influences the search result
		start:    time.Now(),
		bestCost: math.Inf(1),
	}
	if eng.Enabled() {
		p.costs = make(map[uint64]float64)
	}
	return p
}

func (p *problem) lock() {
	if p.concurrent {
		p.mu.Lock()
	}
}

func (p *problem) unlock() {
	if p.concurrent {
		p.mu.Unlock()
	}
}

// stateCost returns the cost of state d (structural hash h), memoized for
// the run. Each state's first evaluation is counted through noteCost
// exactly once — every visit is, under DisableMemo — with step passed on.
// Concurrent tree workers can both miss on one state and compute it (the
// engine returns the same value to both); the first to insert counts it.
func (p *problem) stateCost(d *difftree.Node, h uint64, step bool) float64 {
	p.lock()
	c, ok := p.costs[h]
	p.unlock()
	if ok {
		return c
	}
	c = p.eng.StateCost(d)
	p.lock()
	defer p.unlock()
	if _, ok := p.costs[h]; ok {
		return c
	}
	if p.costs != nil {
		p.costs[h] = c
	}
	p.noteCost(c, step)
	return c
}

// noteCost records one cost evaluation; improvements extend the trajectory
// and emit a progress snapshot immediately. step marks the evaluation as
// one step of a comparator searcher: those count iterations and states per
// evaluation and emit a heartbeat every progressStride evaluations, where
// MCTS takes both counters from its own progress.
func (p *problem) noteCost(c float64, step bool) {
	p.evals++
	if step {
		p.states++
		p.iterations = p.evals
	}
	if c < p.bestCost {
		p.bestCost = c
		//mctsvet:allow wallclock -- trajectory Elapsed is observability; cost and move choices never read it
		p.traj = append(p.traj, TrajectoryPoint{Evals: p.evals, Elapsed: time.Since(p.start), Cost: c})
		p.emit()
	}
	if step && p.evals%progressStride == 0 {
		p.emit()
	}
}

// emit delivers a snapshot to Options.Progress, if set.
func (p *problem) emit() {
	if p.opt.Progress == nil {
		return
	}
	p.opt.Progress(Progress{
		Strategy:   p.opt.Strategy.Name(),
		Worker:     p.worker,
		Iterations: p.iterations,
		States:     p.states,
		Evals:      p.evals,
		BestCost:   p.bestCost,
		//mctsvet:allow wallclock -- progress-snapshot Elapsed is observability; it never influences the search result
		Elapsed: time.Since(p.start),
	})
}

// objective adapts the run's cost memo into the search.Objective every
// non-MCTS strategy shares.
func (p *problem) objective() search.Objective {
	return func(d *difftree.Node) float64 {
		return p.stateCost(d, difftree.Hash(d), true)
	}
}

// space is the shared comparator-searcher state space, with the same size
// cap the MCTS domain prunes with and the same memoized move sets. The cap
// always derives from the initial state, not the search root: a warm start
// must not inflate the reachable space.
func (p *problem) space() search.Space {
	sp := search.SpaceFor(p.init, p.log, p.opt.Rules)
	sp.Eng = p.eng
	return sp
}

// steps resolves the per-strategy step budget: Options.Iterations, or
// effectively unbounded when only a wall-clock budget was given (the
// context deadline then ends the search).
func (p *problem) steps() int {
	if p.opt.Iterations > 0 {
		return p.opt.Iterations
	}
	return math.MaxInt32
}

// searchCtx applies Options.TimeBudget as a context deadline for the
// strategies that have no native wall-clock budget.
func searchCtx(ctx context.Context, opt Options) (context.Context, context.CancelFunc) {
	if opt.TimeBudget > 0 {
		return context.WithTimeout(ctx, opt.TimeBudget)
	}
	return ctx, func() {}
}

// outcomeFromSearch converts a comparator-searcher result into the common
// outcome shape. The counters come from the problem's objective wrapper —
// unique (cache-miss) evaluations, the same numbers Progress snapshots and
// Trajectory points report — not from search.Result, whose Evals also
// counts cache-hit objective calls. Iterations mirrors Evals for these
// strategies. caller is the context handed to the strategy *before*
// searchCtx layered the TimeBudget deadline on: stopping at one's own
// wall-clock budget is a normal completion (matching MCTS, which checks
// TimeBudget natively), so Interrupted is reported only when the caller's
// context itself ended.
func outcomeFromSearch(name string, r search.Result, p *problem, caller context.Context) searchOutcome {
	return searchOutcome{
		best: r.Best,
		stats: Stats{
			Strategy:    name,
			Iterations:  p.evals,
			Expanded:    p.states,
			Evals:       p.evals,
			Interrupted: r.Interrupted && caller.Err() != nil,
		},
	}
}

// --- MCTS (the paper's search) ----------------------------------------------

type mctsStrategy struct{}

// StrategyMCTS returns the paper's Monte Carlo Tree Search, the default.
func StrategyMCTS() Strategy { return mctsStrategy{} }

func (mctsStrategy) Name() string { return "mcts" }

func (mctsStrategy) search(ctx context.Context, p *problem) searchOutcome {
	tw := max(p.opt.TreeWorkers, 1)
	// Tree-parallel workers reach the problem's memo and progress plumbing
	// concurrently; the evaluation engine underneath is already safe.
	p.concurrent = tw > 1
	dom := newDomain(p)
	progress := func(r mcts.Result) {
		p.lock()
		defer p.unlock()
		p.iterations = r.Iterations
		p.states = r.Expanded
		p.emit()
	}
	res := mcts.Search(ctx, dom, state{d: p.root, h: difftree.Hash(p.root)}, mcts.Config{
		C:               p.opt.ExplorationC,
		MaxRolloutDepth: p.opt.RolloutDepth,
		Iterations:      p.opt.Iterations,
		TimeBudget:      p.opt.TimeBudget,
		Seed:            p.opt.Seed,
		TreeWorkers:     tw,
		Reuse:           p.opt.SearchTree,
		Progress:        progress,
	})
	return searchOutcome{
		best: res.Best.(state).d,
		tree: res.Tree,
		stats: Stats{
			Strategy:    "mcts",
			Iterations:  res.Iterations,
			Expanded:    res.Expanded,
			Rollouts:    res.Rollouts,
			Evals:       p.evals, // unique cost evaluations, the scale Progress/Trajectory use
			BestReward:  res.BestReward,
			Interrupted: res.Interrupted,
			ReRooted:    res.ReRooted,
			TreeWorkers: tw,
		},
	}
}

// --- Comparator searchers ---------------------------------------------------

type beamStrategy struct{ width int }

// StrategyBeam returns beam search with the given frontier width
// (DefaultBeamWidth when width <= 0). Options.Iterations bounds the
// generations.
func StrategyBeam(width int) Strategy {
	if width <= 0 {
		width = DefaultBeamWidth
	}
	return beamStrategy{width}
}

func (beamStrategy) Name() string { return "beam" }

func (s beamStrategy) search(ctx context.Context, p *problem) searchOutcome {
	bctx, cancel := searchCtx(ctx, p.opt)
	defer cancel()
	return outcomeFromSearch("beam", search.Beam(bctx, p.root, p.space(), p.objective(), s.width, p.steps()), p, ctx)
}

type greedyStrategy struct{}

// StrategyGreedy returns greedy hill-climbing: the cheapest neighbor is
// taken until a local optimum (or the step/time budget).
func StrategyGreedy() Strategy { return greedyStrategy{} }

func (greedyStrategy) Name() string { return "greedy" }

func (greedyStrategy) search(ctx context.Context, p *problem) searchOutcome {
	gctx, cancel := searchCtx(ctx, p.opt)
	defer cancel()
	return outcomeFromSearch("greedy", search.Greedy(gctx, p.root, p.space(), p.objective(), p.steps()), p, ctx)
}

type randomStrategy struct{ walks int }

// StrategyRandom returns independent uniform random walks
// (DefaultRandomWalks when walks <= 0); Options.RolloutDepth bounds each
// walk's length.
func StrategyRandom(walks int) Strategy {
	if walks <= 0 {
		walks = DefaultRandomWalks
	}
	return randomStrategy{walks}
}

func (randomStrategy) Name() string { return "random" }

func (s randomStrategy) search(ctx context.Context, p *problem) searchOutcome {
	rctx, cancel := searchCtx(ctx, p.opt)
	defer cancel()
	return outcomeFromSearch("random",
		search.Random(rctx, p.root, p.space(), p.objective(), s.walks, p.opt.RolloutDepth, p.opt.Seed), p, ctx)
}

type exhaustiveStrategy struct{ maxStates int }

// StrategyExhaustive returns breadth-first enumeration of the whole space,
// capped at maxStates (DefaultExhaustiveCap when <= 0); feasible only for
// tiny logs, where it calibrates the optimum.
func StrategyExhaustive(maxStates int) Strategy {
	if maxStates <= 0 {
		maxStates = DefaultExhaustiveCap
	}
	return exhaustiveStrategy{maxStates}
}

func (exhaustiveStrategy) Name() string { return "exhaustive" }

func (s exhaustiveStrategy) search(ctx context.Context, p *problem) searchOutcome {
	ectx, cancel := searchCtx(ctx, p.opt)
	defer cancel()
	res, complete := search.Exhaustive(ectx, p.root, p.space(), p.objective(), s.maxStates)
	out := outcomeFromSearch("exhaustive", res, p, ctx)
	// A warm-started sweep covers only states reachable from the warm root
	// (moves are not invertible), so it must not claim the whole-space
	// optimality a cold sweep calibrates.
	out.stats.SpaceExhausted = complete && p.root == p.init
	return out
}

// StrategyByName resolves a strategy spec of the form "name" or
// "name:param" — "mcts", "beam[:width]", "greedy", "random[:walks]",
// "exhaustive[:maxStates]" — as used by command-line flags.
func StrategyByName(spec string) (Strategy, error) {
	name, param := spec, 0
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name = spec[:i]
		v, err := strconv.Atoi(spec[i+1:])
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("core: bad strategy parameter in %q", spec)
		}
		param = v
	}
	switch name {
	case "mcts":
		if param != 0 {
			return nil, fmt.Errorf("core: strategy %q takes no parameter", name)
		}
		return StrategyMCTS(), nil
	case "beam":
		return StrategyBeam(param), nil
	case "greedy":
		if param != 0 {
			return nil, fmt.Errorf("core: strategy %q takes no parameter", name)
		}
		return StrategyGreedy(), nil
	case "random":
		return StrategyRandom(param), nil
	case "exhaustive":
		return StrategyExhaustive(param), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want mcts, beam, greedy, random, or exhaustive)", name)
	}
}
