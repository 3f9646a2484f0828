package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// cold-sdss: one-shot sequential MCTS over the paper's Listing 1, each
// search with a fresh cache. A run cycles through coldSeeds search seeds
// derived from the workload seed and always completes whole cycles, so
// every seed weighs the same in the medians.
const (
	coldIterations = 15
	coldDepth      = 8
	coldSeeds      = 4
)

// parseLog parses SQL text the way mctsui.Generator.Generate does.
func parseLog(sqls []string) ([]*ast.Node, error) {
	log := make([]*ast.Node, len(sqls))
	for i, q := range sqls {
		n, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		log[i] = n
	}
	return log, nil
}

// engineSetup is the work before a search's first iteration that the
// benchmark can time from outside: parse the log, build the initial
// difftree and set up the evaluation engine over a fresh cache.
func engineSetup(sqls []string) error {
	log, err := parseLog(sqls)
	if err != nil {
		return err
	}
	init, err := difftree.Initial(log)
	if err != nil {
		return err
	}
	eval.New(eval.Config{
		Log:     log,
		Model:   cost.Default(layout.Wide),
		Samples: core.DefaultRewardSamples,
		Rules:   rules.All(),
		SizeCap: search.SizeCap(init),
		Seed:    core.DefaultSeed,
	}, eval.NewCache(0))
	return nil
}

// coldRef is a search result a measured search must reproduce exactly.
type coldRef struct {
	cost float64
	hash uint64
	tree string
}

func refOf(res *core.Result) coldRef {
	return coldRef{res.Cost.Total(), difftree.Hash(res.DiffTree), res.DiffTree.String()}
}

func (want coldRef) compare(got *core.Result) error {
	g := refOf(got)
	if g.cost != want.cost || g.hash != want.hash || g.tree != want.tree {
		return fmt.Errorf("cost %v tree %x, reference cost %v tree %x", g.cost, g.hash, want.cost, want.hash)
	}
	return nil
}

func runCold(ctx context.Context, r *run) (*outcome, error) {
	sqls := workload.SDSSLogSQL()
	iters, nseeds := coldIterations, coldSeeds
	if r.smoke {
		iters, nseeds = 2, 1
	}
	seeds := deriveSeeds(r.seed, 1, nseeds)
	log, err := parseLog(sqls)
	if err != nil {
		return nil, err
	}
	opts := func(seed int64) core.Options {
		return core.Options{Iterations: iters, RolloutDepth: coldDepth, Seed: seed}
	}

	setup, err := setupTime(31, 200, func() error { return engineSetup(sqls) })
	if err != nil {
		return nil, err
	}
	// References: the same searches with memoization disabled, two at a
	// time (set-up is not measured).
	refRes := make([]*core.Result, len(seeds))
	err = parallel(len(seeds), func(i int) error {
		opt := opts(seeds[i])
		opt.DisableMemo = true
		res, err := core.Generate(ctx, log, opt)
		refRes[i] = res
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference search: %w", err)
	}
	refs := make([]coldRef, len(seeds))
	for i, res := range refRes {
		refs[i] = refOf(res)
	}

	o := newOutcome()
	measure := func(tr *tracer, window time.Duration) (*loopWindow, error) {
		w := &loopWindow{}
		mem := watchMemory()
		start := time.Now()
		prevEnd := start
		for i := 0; i%len(seeds) != 0 || time.Since(start) < window || i == 0; i++ {
			seed := seeds[i%len(seeds)]
			req, root := tr.id(), tr.id()
			t0 := time.Now()
			w.lagMS = append(w.lagMS, ms(t0.Sub(prevEnd)))
			log, err := parseLog(sqls)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			cache := eval.NewCache(0)
			opt := opts(seed)
			opt.Cache = cache
			clock := &iterClock{}
			if tr != nil {
				opt.Progress = clock.progress
			}
			g0 := time.Now()
			res, err := core.Generate(ctx, log, opt)
			g1 := time.Now()
			if err != nil {
				return nil, err
			}
			prevEnd = g1
			w.latMS = append(w.latMS, ms(g1.Sub(t0)))
			w.genSec += g1.Sub(g0).Seconds()
			w.iterations += res.Stats.Iterations
			o.check(refs[i%len(seeds)].compare(res))
			if tr != nil {
				tr.record(span{Parent: root, Req: req, Layer: "sqlparser", Op: "search"}, t0, t1)
				iterMS, extractMS := searchTrace(tr, req, root, "search", clock, g0, g1)
				tr.record(span{ID: root, Req: req, Layer: "bench", Op: "search"}, t0, g1)
				w.layers.add(res.Stats, iterMS, extractMS)
				cs := cache.Stats()
				w.layers.addCache(cs.Hits, cs.Misses, cs.Evictions)
			}
		}
		w.elapsed = time.Since(start)
		w.peakMiB, w.allocMiB = mem.finish()
		return w, nil
	}

	o.note("cold-sdss: seeds %v, %d iterations, rollout depth %d", seeds, iters, coldDepth)
	tr, err := closedLoop(o, r, measure, setup, meanCost(refs), "search")
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}
	if err := layerReplay(o, tr, sqls, refRes[0].DiffTree, seeds[0], r.smoke); err != nil {
		return nil, err
	}
	fillSelfTimes(o, tr)
	return o, nil
}

func meanCost(refs []coldRef) float64 {
	t := 0.0
	for _, r := range refs {
		t += r.cost
	}
	return t / float64(len(refs))
}
