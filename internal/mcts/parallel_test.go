package mcts

import (
	"context"
	"testing"
	"time"
)

// walkTree applies fn to every node reachable from root.
func walkTree(root *node, fn func(*node)) {
	fn(root)
	for _, c := range root.children() {
		walkTree(c, fn)
	}
}

// auditVirtualLoss fails the test for every node that still carries a
// virtual loss after the workers have joined.
func auditVirtualLoss(t *testing.T, tree *Tree) {
	t.Helper()
	walkTree(tree.root, func(n *node) {
		if vl := n.vloss.Load(); vl != 0 {
			t.Errorf("node %v: %d virtual losses left after join", n.state, vl)
		}
	})
}

// TestTreeParallelFindsPeak: a tree-parallel search spends the full shared
// budget and homes in on the peak. Which states one run visits depends on
// worker interleaving, and at this budget even a single worker misses
// the exact peak on a few percent of seeds, so a single run is a draw, not a
// property. The property is over a batch of seeds: every run spends its
// whole budget, and the peak is found in the batch.
func TestTreeParallelFindsPeak(t *testing.T) {
	d := lineDomain{n: 40, target: 25}
	found := false
	for seed := int64(5); seed < 13; seed++ {
		res := Search(context.Background(), d, lineState(0), Config{
			Iterations: 1500, MaxRolloutDepth: 60, Seed: seed, TreeWorkers: 4,
		})
		if res.Iterations != 1500 {
			t.Errorf("seed %d: iterations = %d, want the full shared budget of 1500", seed, res.Iterations)
		}
		if res.Expanded == 0 || res.Rollouts == 0 || res.Evals == 0 {
			t.Errorf("seed %d: counters zero: %+v", seed, res)
		}
		found = found || int(res.Best.(lineState)) == d.target
	}
	if !found {
		t.Errorf("no run of the batch found the peak state %d", d.target)
	}
}

// TestTreeParallelWorkersOneBitIdentical pins the determinism contract:
// TreeWorkers 0 and 1 must run the identical single-worker search.
func TestTreeParallelWorkersOneBitIdentical(t *testing.T) {
	d := lineDomain{n: 60, target: 47}
	base := Config{Iterations: 200, MaxRolloutDepth: 30, Seed: 11}
	seq := Search(context.Background(), d, lineState(0), base)
	one := base
	one.TreeWorkers = 1
	got := Search(context.Background(), d, lineState(0), one)
	// The Tree handle is a fresh pointer per run; identity is over the
	// search outcome, not the handle.
	got.Tree, seq.Tree = nil, nil
	if got != seq {
		t.Errorf("TreeWorkers=1 diverged from TreeWorkers=0:\n got %+v\nwant %+v", got, seq)
	}
}

// TestVirtualLossAccounting joins an 8-worker shared-tree search and then
// audits the tree: no virtual loss may remain, visit counts must be
// consistent along every edge, rewards must stay within their [0, 1] bounds,
// and the root must have absorbed exactly one backpropagation per random
// walk (lineDomain has no terminal states, so walks are the only source).
func TestVirtualLossAccounting(t *testing.T) {
	d := lineDomain{n: 30, target: 21}
	cfg := Config{Iterations: 400, MaxRolloutDepth: 20, Seed: 3, TreeWorkers: 8, C: 1.4}
	res := Search(context.Background(), d, lineState(0), cfg)
	root := res.Tree.root

	auditVirtualLoss(t, res.Tree)
	walkTree(root, func(n *node) {
		v := n.visits.Load()
		var childSum int64
		for _, c := range n.children() {
			childSum += c.visits.Load()
		}
		// Every child backprop passes through its parent; the parent may
		// additionally absorb its own expansion-time or terminal backprops.
		if childSum > v {
			t.Errorf("node %v: children visits %d exceed own visits %d", n.state, childSum, v)
		}
		if total := n.total(); total < 0 || total > float64(v) {
			t.Errorf("node %v: total reward %f out of [0, visits=%d]", n.state, total, v)
		}
	})
	if rv := root.visits.Load(); rv != int64(res.Rollouts) {
		t.Errorf("root visits %d != rollouts %d: lost or duplicated backpropagation", rv, res.Rollouts)
	}
	if res.Iterations != 400 {
		t.Errorf("iterations = %d, want 400", res.Iterations)
	}
}

// TestTreeParallelStressTinyTree maximizes contention: 8 workers in a
// 5-state space collide on the same few nodes constantly. Run under -race in
// CI, this is the shared-tree memory-safety exercise.
func TestTreeParallelStressTinyTree(t *testing.T) {
	d := lineDomain{n: 5, target: 4}
	cfg := Config{Iterations: 2000, MaxRolloutDepth: 8, Seed: 9, TreeWorkers: 8}
	res := Search(context.Background(), d, lineState(0), cfg)
	if int(res.Best.(lineState)) != d.target {
		t.Errorf("best = %v, want %d", res.Best, d.target)
	}
	auditVirtualLoss(t, res.Tree)
}

func TestTreeParallelCancellation(t *testing.T) {
	d := lineDomain{n: 1000, target: 999}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Search(ctx, d, lineState(0), Config{Iterations: 1 << 30, MaxRolloutDepth: 10, Seed: 1, TreeWorkers: 4})
	if !res.Interrupted {
		t.Error("cancelled tree-parallel search must report Interrupted")
	}
	if res.Iterations != 0 {
		t.Errorf("cancelled-before-start search completed %d iterations", res.Iterations)
	}
	if res.Best == nil {
		t.Error("cancelled search must still return the root as best-so-far")
	}
}

func TestTreeParallelTimeBudget(t *testing.T) {
	d := lineDomain{n: 100000, target: 99999}
	start := time.Now()
	res := Search(context.Background(), d, lineState(0), Config{
		TimeBudget: 30 * time.Millisecond, MaxRolloutDepth: 10, Seed: 1, TreeWorkers: 4,
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("time budget ignored: ran %v", elapsed)
	}
	if res.Iterations == 0 {
		t.Error("no iterations within budget")
	}
	if res.Interrupted {
		t.Error("an elapsed TimeBudget is a normal completion, not an interruption")
	}
}

// TestTreeParallelReuseReRoots: the shared tree persists and re-roots like
// the single-worker one. A 4-worker search seeded with a 4-worker tree
// re-roots at a descendant, reconciles its stale nodes under the node
// mutexes, leaves no virtual loss behind, and persists a tree of its own.
func TestTreeParallelReuseReRoots(t *testing.T) {
	d := lineDomain{n: 60, target: 12}
	cfg := Config{Iterations: 300, MaxRolloutDepth: 30, Seed: 7, TreeWorkers: 4}
	first := Search(context.Background(), d, lineState(0), cfg)
	auditVirtualLoss(t, first.Tree)

	before := first.Tree.find(lineState(1).Hash()).visits.Load()
	warm := cfg
	warm.Reuse = first.Tree
	res := Search(context.Background(), d, lineState(1), warm)
	if !res.ReRooted {
		t.Fatal("state 1 is a child of the first search's root; expected a re-root")
	}
	if res.Iterations != 300 {
		t.Errorf("iterations = %d, want 300", res.Iterations)
	}
	auditVirtualLoss(t, res.Tree)
	if res.Tree.root.state != lineState(1) || res.Tree.root.parent != nil {
		t.Errorf("tree not re-rooted at state 1: root %v", res.Tree.root.state)
	}
	if e := res.Tree.root.exp.Load(); e == nil || e.epoch != res.Tree.epoch {
		t.Error("the re-rooted root was not reconciled under the current epoch")
	}
	if rv := res.Tree.root.visits.Load(); rv <= before {
		t.Errorf("re-rooted root has %d visits, %d before the search; the reused statistics were lost", rv, before)
	}
}
