package core

import (
	"context"
	"testing"

	"repro/internal/difftree"
	"repro/internal/workload"
)

// TestWarmStartSeedsSearch: re-running a search warm-started from its own
// best state must report WarmStarted and never regress past the warm
// state's quality (the warm root is always a candidate incumbent).
func TestWarmStartSeedsSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}

	cold, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.WarmStarted {
		t.Error("cold run reported WarmStarted")
	}

	warmOpt := base
	warmOpt.WarmStart = cold.DiffTree
	warm, err := Generate(context.Background(), log, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.WarmStarted {
		t.Fatal("legal warm state was not used")
	}
	if warm.Cost.Total() > cold.Cost.Total() {
		t.Errorf("warm start regressed: %v > %v", warm.Cost.Total(), cold.Cost.Total())
	}
}

// TestWarmStartIllegalFallsBack: a warm state that cannot express the log
// must be ignored — the run is bit-identical to a cold one.
func TestWarmStartIllegalFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 6, RolloutDepth: 6, Seed: 5}

	cold, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}

	// An interface generated for a different log does not express this one.
	other, err := difftree.Initial(workload.PaperFigure1Log()[:1])
	if err != nil {
		t.Fatal(err)
	}
	warmOpt := base
	warmOpt.WarmStart = other
	got, err := Generate(context.Background(), log, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.WarmStarted {
		t.Error("illegal warm state was used")
	}
	if got.Cost.Total() != cold.Cost.Total() {
		t.Errorf("fallback run diverged from cold: %v vs %v", got.Cost.Total(), cold.Cost.Total())
	}
	if difftree.Hash(got.DiffTree) != difftree.Hash(cold.DiffTree) {
		t.Error("fallback best difftree diverged from cold run")
	}
}

// TestWarmStartIncrementalAppend models the serving workload: generate over
// a log prefix, append queries, and regenerate warm-started from the
// previous best. The warm tree is accepted whenever it still expresses the
// extended log; either way the result must express every query.
func TestWarmStartIncrementalAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	if len(log) < 3 {
		t.Skip("log too small to split")
	}
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}

	prev, err := Generate(context.Background(), log[:len(log)-1], base)
	if err != nil {
		t.Fatal(err)
	}

	warmOpt := base
	warmOpt.WarmStart = prev.DiffTree
	full, err := Generate(context.Background(), log, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range log {
		if !difftree.Expressible(full.DiffTree, q) {
			t.Errorf("query %d not expressible after incremental regeneration", i)
		}
	}
	// Determinism: the same warm-started regeneration twice is identical.
	again, err := Generate(context.Background(), log, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if difftree.Hash(again.DiffTree) != difftree.Hash(full.DiffTree) {
		t.Error("warm-started regeneration is not deterministic")
	}
	if again.Stats.WarmStarted != full.Stats.WarmStarted {
		t.Error("WarmStarted flapped across identical runs")
	}
}

// TestSearchTreeReRootOnAppend is the serving-path regression test for tree
// re-use: a warm-started append that also passes the previous search's tree
// (Options.SearchTree) must re-root on it and spend fewer cost evaluations
// than the identical append without the tree, at an equal final cost.
func TestSearchTreeReRootOnAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	if len(log) < 3 {
		t.Skip("log too small to split")
	}
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}

	// A pure re-generation (the session path's empty append) keeps the warm
	// state legal by construction, so the runs differ only in tree reuse.
	prev, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}
	if prev.SearchTree == nil {
		t.Fatal("sequential MCTS generation persisted no search tree")
	}

	warmOpt := base
	warmOpt.WarmStart = prev.DiffTree
	scratch, err := Generate(context.Background(), log, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Stats.ReRooted {
		t.Fatal("append without Options.SearchTree claims re-rooting")
	}

	reOpt := warmOpt
	reOpt.SearchTree = prev.SearchTree
	rerooted, err := Generate(context.Background(), log, reOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !rerooted.Stats.WarmStarted {
		t.Fatal("warm state not reused — the re-root premise is gone")
	}
	if !rerooted.Stats.ReRooted {
		t.Fatal("previous tree contains the warm root but the append did not re-root")
	}
	if rerooted.Stats.Evals >= scratch.Stats.Evals {
		t.Errorf("re-rooted append used %d evals, from-scratch append %d; tree reuse must be cheaper",
			rerooted.Stats.Evals, scratch.Stats.Evals)
	}
	if rerooted.Cost.Total() != scratch.Cost.Total() {
		t.Errorf("re-rooted append cost %v != from-scratch append cost %v",
			rerooted.Cost.Total(), scratch.Cost.Total())
	}
	for i, q := range log {
		if !difftree.Expressible(rerooted.DiffTree, q) {
			t.Errorf("query %d not expressible after re-rooted regeneration", i)
		}
	}
	// The re-rooted run persists a tree of its own for the next append.
	if rerooted.SearchTree == nil {
		t.Error("re-rooted generation persisted no tree for the next append")
	}
}

// TestReuseSearchTreeUnderRootParallel is the regression test for the data
// race between root-parallel workers and a reused search tree: every root
// worker used to re-root and backpropagate into the one Options.SearchTree
// concurrently. Only root worker 0 may take the tree. Run under -race.
func TestReuseSearchTreeUnderRootParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	log := workload.PaperFigure1Log()
	base := Options{Iterations: 8, RolloutDepth: 6, Seed: 7}
	prev, err := Generate(context.Background(), log, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.WarmStart, opt.SearchTree = prev.DiffTree, prev.SearchTree
	res, err := GenerateParallel(context.Background(), log, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.WarmStarted {
		t.Fatal("warm state not reused")
	}
	if res.Cost.Total() > prev.Cost.Total() {
		t.Errorf("warm-started root-parallel append cost %v, worse than its warm state's %v",
			res.Cost.Total(), prev.Cost.Total())
	}
	if res.SearchTree == nil {
		t.Error("root-parallel append persisted no tree for the next append")
	}
}
