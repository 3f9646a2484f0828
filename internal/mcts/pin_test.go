package mcts

import (
	"context"
	"math"
	"testing"
)

// pinned is the exact outcome of one single-worker search.
type pinned struct {
	best                                  int
	rewardBits                            uint64
	iterations, expanded, rollouts, evals int
	reRooted                              bool
	nodes                                 int
}

func pinOf(r Result) pinned {
	return pinned{
		best: int(r.Best.(lineState)), rewardBits: math.Float64bits(r.BestReward),
		iterations: r.Iterations, expanded: r.Expanded, rollouts: r.Rollouts, evals: r.Evals,
		reRooted: r.ReRooted, nodes: r.Tree.Nodes(),
	}
}

// pinConfig is the search configuration every pinned case starts from.
func pinConfig(iterations, depth int, seed int64) Config {
	return Config{Iterations: iterations, MaxRolloutDepth: depth, Seed: seed}
}

// reRooted runs a cold search from state 0 in first, then a second search
// in second from state from, reusing the first search's tree.
func reRooted(first, second Domain, cfg Config, from int) Result {
	prev := Search(context.Background(), first, lineState(0), cfg)
	warm := cfg
	warm.Reuse = prev.Tree
	return Search(context.Background(), second, lineState(from), warm)
}

// TestSingleWorkerSearchPinned records the exact result of single-worker
// searches — cold, re-rooted at the root and at a descendant, twice
// re-rooted, and reconciled against a shrunk domain — so any change to the
// search loop that moves a single reward bit, counter or tree node fails
// here. The values are a recording, not a derivation: they change only with
// an intended change to the search semantics.
func TestSingleWorkerSearchPinned(t *testing.T) {
	line := lineDomain{n: 40, target: 25}
	wide := lineDomain{n: 60, target: 12}
	trap := trapDomain{lineDomain{n: 30, target: 22}}
	fan := fanDomain{fan: 50}
	cases := []struct {
		name string
		run  func() Result
		want pinned
	}{
		{"line/cold", func() Result {
			return Search(context.Background(), line, lineState(0), pinConfig(600, 60, 5))
		}, pinned{25, 0x3ff0000000000000, 600, 600, 1122, 2245, false, 1123}},
		{"trap/cold", func() Result {
			return Search(context.Background(), trap, lineState(0), pinConfig(800, 40, 3))
		}, pinned{22, 0x3ff0000000000000, 800, 800, 1498, 2997, false, 1499}},
		{"fan/cold", func() Result {
			return Search(context.Background(), fan, lineState(0), pinConfig(5, 4, 1))
		}, pinned{0, 0x3fe0000000000000, 5, 5, 50, 105, false, 51}},
		{"line/reroot-root", func() Result { return reRooted(wide, wide, pinConfig(300, 30, 11), 0) }, pinned{12, 0x3ff0000000000000, 300, 300, 160, 321, true, 720}},
		{"line/reroot-descendant", func() Result { return reRooted(wide, wide, pinConfig(300, 30, 7), 4) }, pinned{12, 0x3ff0000000000000, 300, 300, 513, 1027, true, 589}},
		{"line/reroot-twice", func() Result {
			cfg := pinConfig(150, 30, 13)
			mid := reRooted(wide, wide, cfg, 3)
			cfg.Reuse = mid.Tree
			return Search(context.Background(), wide, lineState(9), cfg)
		}, pinned{12, 0x3ff0000000000000, 150, 150, 294, 589, true, 301}},
		{"trap/reroot-root", func() Result { return reRooted(trap, trap, pinConfig(400, 40, 3), 0) }, pinned{2, 0x3fe0000000000000, 400, 400, 224, 449, true, 966}},
		{"trap/reroot-descendant", func() Result { return reRooted(trap, trap, pinConfig(400, 40, 3), 5) }, pinned{2, 0x3fe0000000000000, 400, 400, 749, 1499, true, 792}},
		{"fan/reroot-root", func() Result { return reRooted(fan, fan, pinConfig(5, 4, 1), 0) }, pinned{0, 0x3fe0000000000000, 5, 5, 0, 5, true, 51}},
		{"fan/reroot-descendant", func() Result { return reRooted(fan, fan, pinConfig(5, 4, 1), 7) }, pinned{7, 0x3fe0000000000000, 5, 1, 0, 6, true, 1}},
		{"line/reconcile", func() Result {
			return reRooted(lineDomain{n: 40, target: 30}, lineDomain{n: 20, target: 10}, pinConfig(120, 20, 9), 0)
		}, pinned{10, 0x3ff0000000000000, 120, 120, 83, 167, true, 304}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := pinOf(tc.run()); got != tc.want {
				t.Errorf("single-worker search drifted:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
