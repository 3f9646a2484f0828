package main

import (
	"context"
	"fmt"
	"time"

	mctsui "repro"
	"repro/internal/codec"
	"repro/internal/difftree"
	"repro/internal/workload"
)

// session-join: one in-process session replays the 14-query SDSSJoinLog one
// append at a time through mctsui.Generator, on the daemon's append path:
// warm start from the previous interface, the previous search tree, no
// initial-cost reference and one cache shared by the session's appends. A
// run replays one session per derived seed and completes whole cycles.
const (
	sessionIterations = 6
	sessionDepth      = 8
	sessionSeeds      = 3
)

// appendStep is one append of a replayed session.
type appendStep struct {
	n        int // log length after this append
	iface    *mctsui.Interface
	start    time.Time
	parseEnd time.Time // parse finished, Generate starts
	end      time.Time
	clock    *iterClock
}

// appendChain replays sqls as one session's appends — the first append
// carries sqls[:first], each later one a single query — on the daemon's
// append path: base options (then create, on the first append only) plus
// the warm start and search tree of the previous append and the session's
// cache (nil: memoization disabled, the reference path). each sees every
// append's result.
func appendChain(ctx context.Context, sqls []string, first int, base, create []mctsui.Option, cache *mctsui.Cache, traced bool, each func(appendStep) error) error {
	var prev *mctsui.Interface
	var tree *mctsui.SearchTree
	for n := first; n <= len(sqls); n++ {
		opts := append(base[:len(base):len(base)], mctsui.WithoutInitialCost(), mctsui.WithWarmStart(prev), mctsui.WithSearchTree(tree))
		if n == first {
			opts = append(opts, create...)
		}
		if cache != nil {
			opts = append(opts, mctsui.WithCache(cache))
		} else {
			opts = append(opts, mctsui.WithoutCache())
		}
		step := appendStep{n: n, clock: &iterClock{}}
		if traced {
			opts = append(opts, mctsui.WithProgress(step.clock.progress))
		}
		step.start = time.Now()
		log, err := parseLog(sqls[:n])
		if err != nil {
			return err
		}
		step.parseEnd = time.Now()
		iface, err := mctsui.New(opts...).GenerateFromASTs(ctx, log)
		step.end = time.Now()
		if err != nil {
			return fmt.Errorf("append %d: %w", n, err)
		}
		step.iface = iface
		if err := each(step); err != nil {
			return err
		}
		prev, tree = iface, iface.SearchTree()
	}
	return nil
}

// diffTreeOf recovers an interface's difftree through its serialized form,
// the only public view of it.
func diffTreeOf(f *mctsui.Interface) (*difftree.Node, error) {
	data, err := f.MarshalJSON()
	if err != nil {
		return nil, err
	}
	d, _, _, err := codec.Unmarshal(data)
	return d, err
}

func runSessionJoin(ctx context.Context, r *run) (*outcome, error) {
	sqls := workload.SDSSJoinLogSQL()
	iters, nseeds := sessionIterations, sessionSeeds
	if r.smoke {
		sqls, iters, nseeds = sqls[:3], 2, 1
	}
	seeds := deriveSeeds(r.seed, 2, nseeds)

	setup, err := setupTime(31, 200, func() error {
		if _, err := parseLog(sqls); err != nil {
			return err
		}
		return engineSetup(sqls[:1])
	})
	if err != nil {
		return nil, err
	}
	opts := func(seed int64) []mctsui.Option {
		return []mctsui.Option{mctsui.WithIterations(iters), mctsui.WithRolloutDepth(sessionDepth), mctsui.WithSeed(seed)}
	}
	// Reference replays with memoization disabled: one cost per append.
	refs := make([][]float64, len(seeds))
	finals := make([]*mctsui.Interface, len(seeds))
	err = parallel(len(seeds), func(i int) error {
		return appendChain(ctx, sqls, 1, opts(seeds[i]), nil, nil, false, func(s appendStep) error {
			refs[i] = append(refs[i], s.iface.Cost())
			finals[i] = s.iface
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}

	o := newOutcome()
	measure := func(tr *tracer, window time.Duration) (*loopWindow, error) {
		w := &loopWindow{}
		mem := watchMemory()
		start := time.Now()
		prevEnd := start
		for i := 0; i%len(seeds) != 0 || time.Since(start) < window || i == 0; i++ {
			k := i % len(seeds)
			cache := mctsui.NewCache(0)
			before := cache.Stats()
			err := appendChain(ctx, sqls, 1, opts(seeds[k]), nil, cache, tr != nil, func(s appendStep) error {
				w.lagMS = append(w.lagMS, ms(s.start.Sub(prevEnd)))
				prevEnd = s.end
				w.latMS = append(w.latMS, ms(s.end.Sub(s.start)))
				w.genSec += s.end.Sub(s.parseEnd).Seconds()
				st := s.iface.Stats()
				w.iterations += st.Iterations
				want := refs[k][s.n-1]
				if got := s.iface.Cost(); got != want {
					o.check(fmt.Errorf("session seed %d append %d: cost %v, reference %v", seeds[k], s.n, got, want))
				} else {
					o.check(nil)
				}
				if tr != nil {
					req, root := tr.id(), tr.id()
					tr.record(span{Parent: root, Req: req, Layer: "sqlparser", Op: "append"}, s.start, s.parseEnd)
					iterMS, extractMS := searchTrace(tr, req, root, "append", s.clock, s.parseEnd, s.end)
					tr.record(span{ID: root, Req: req, Layer: "bench", Op: "append"}, s.start, s.end)
					w.layers.add(st, iterMS, extractMS)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			after := cache.Stats()
			w.layers.addCache(after.Hits-before.Hits, after.Misses-before.Misses, after.Evictions-before.Evictions)
		}
		w.elapsed = time.Since(start)
		w.peakMiB, w.allocMiB = mem.finish()
		return w, nil
	}

	finalCost := 0.0
	for _, c := range refs {
		finalCost += c[len(c)-1]
	}
	finalCost /= float64(len(refs))

	o.note("session-join: seeds %v, %d iterations, rollout depth %d", seeds, iters, sessionDepth)
	tr, err := closedLoop(o, r, measure, setup, finalCost, "append")
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}
	// The final difftree of the first seed's replay anchors the cost and
	// extraction replays.
	final, err := diffTreeOf(finals[0])
	if err != nil {
		return nil, err
	}
	if err := layerReplay(o, tr, sqls, final, seeds[0], r.smoke); err != nil {
		return nil, err
	}
	fillSelfTimes(o, tr)
	return o, nil
}
