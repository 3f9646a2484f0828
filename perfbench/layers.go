package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/sqlparser"
)

// Layer replay: every public call of the per-layer table, timed one call at
// a time on a fixed, seeded set of search states — random walks of several
// depths from the workload log's initial difftree — so a layer's cost is
// measured apart from how often a search happens to call it.
var walkDepths = []int{0, 2, 4, 8, 16}

const (
	walksPerDepth = 12 // 60 states per log
	replayPasses  = 3
)

// walkStates builds the replay state set for a log.
func walkStates(sqls []string, seed int64, smoke bool) ([]*difftree.Node, error) {
	log, err := parseLog(sqls)
	if err != nil {
		return nil, err
	}
	depths, per := walkDepths, walksPerDepth
	if smoke {
		depths, per = depths[:2], 2
	}
	seeds := deriveSeeds(seed, 3, per)
	var states []*difftree.Node
	for _, d := range depths {
		for _, s := range seeds {
			st, err := core.RandomWalk(log, d, s)
			if err != nil {
				return nil, err
			}
			states = append(states, st)
		}
	}
	return states, nil
}

// perCall times fn once per state, passes times over the set, and returns
// the median microseconds per call and the mean allocations per call.
func perCall(states []*difftree.Node, passes int, fn func(*difftree.Node)) (us, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	times := make([]float64, 0, passes*len(states))
	for p := 0; p < passes; p++ {
		for _, d := range states {
			t0 := time.Now()
			fn(d)
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	runtime.ReadMemStats(&m1)
	return median(times), float64(m1.Mallocs-m0.Mallocs) / float64(len(times))
}

// repeat times fn n times and returns the median microseconds per call.
func repeat(n int, fn func()) float64 {
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(times)
}

// layerReplay fills the eval, difftree, rules, cost, core.best_interface
// and sqlparser metrics for one workload's log; final is the difftree a
// reference search of that workload ended on.
func layerReplay(o *outcome, tr *tracer, sqls []string, final *difftree.Node, seed int64, smoke bool) error {
	log, err := parseLog(sqls)
	if err != nil {
		return err
	}
	req := tr.id()
	t0 := time.Now()
	init, err := difftree.Initial(log)
	tr.record(span{Req: req, Layer: "difftree", Op: "initial"}, t0, time.Now())
	if err != nil {
		return err
	}
	states, err := walkStates(sqls, seed, smoke)
	if err != nil {
		return err
	}
	model := cost.Default(layout.Wide)
	cfg := eval.Config{
		Log:     log,
		Model:   model,
		Samples: core.DefaultRewardSamples,
		Rules:   rules.All(),
		SizeCap: search.SizeCap(init),
		Seed:    seed,
	}
	cold := eval.New(cfg, nil) // nil cache: every call recomputes
	movesUS, movesAllocs := perCall(states, replayPasses, func(d *difftree.Node) { cold.Moves(d) })
	legalUS, _ := perCall(states, replayPasses, func(d *difftree.Node) { cold.LegalState(d) })
	costUS, _ := perCall(states, replayPasses, func(d *difftree.Node) { cold.StateCost(d) })
	warm := eval.New(cfg, eval.NewCache(0))
	for _, d := range states {
		warm.Moves(d)
	}
	warmUS, _ := perCall(states, replayPasses, func(d *difftree.Node) { warm.Moves(d) })
	exprUS, _ := perCall(states, replayPasses, func(d *difftree.Node) { difftree.ExpressibleAll(d, log) })
	fanout := 0
	rulesUS, _ := perCall(states, 1, func(d *difftree.Node) { fanout += len(rules.Moves(d, log, cfg.Rules)) })

	ui, bd, _ := core.BestInterface(final, log, model, core.DefaultEnumLimit, seed)
	if !bd.Valid {
		return fmt.Errorf("final difftree has no valid interface: %s", bd.Reason)
	}
	evalUS := repeat(200, func() { model.Evaluate(final, ui, log) })
	bestMS := repeat(5, func() { core.BestInterface(final, log, model, core.DefaultEnumLimit, seed) }) / 1e3
	var parseUS []float64
	for _, q := range sqls {
		parseUS = append(parseUS, repeat(20, func() { _, _ = sqlparser.Parse(q) }))
	}

	o.set("eval.moves_us", "us", movesUS)
	o.set("eval.moves_allocs", "count", movesAllocs)
	o.set("eval.legal_us", "us", legalUS)
	o.set("eval.cost_us", "us", costUS)
	o.set("eval.moves_warm_us", "us", warmUS)
	o.set("difftree.expressible_us", "us", exprUS)
	o.set("rules.moves_us", "us", rulesUS)
	o.set("rules.fanout", "count", float64(fanout)/float64(len(states)))
	o.set("cost.evaluate_us", "us", evalUS)
	o.set("core.best_interface_ms", "ms", bestMS)
	o.set("sqlparser.parse_us", "us", median(parseUS))
	o.note("layer replay: %d walk states (depths %v), %d passes; final difftree cost %.4f", len(states), walkDepths, replayPasses, bd.Total())
	return nil
}
