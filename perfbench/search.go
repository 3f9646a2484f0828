package main

import (
	"time"

	"repro/internal/core"
)

// loopWindow is one measured window of a closed-loop workload, whose units
// of work (searches, appends) run back to back.
type loopWindow struct {
	latMS      []float64 // per unit of work
	genSec     float64   // total Generate wall time
	iterations int
	elapsed    time.Duration
	peakMiB    float64
	allocMiB   float64
	lagMS      []float64 // gap between one unit's end and the next's start
	layers     searchLayers
}

// closedLoop measures a closed-loop workload. Untraced, it runs one window
// and fills the end-to-end metrics. Traced, it runs the traced window
// between two untraced half windows — so the tracing overhead favours
// neither order — fills the search-side per-layer metrics and returns the
// tracer for the caller's replays. measure runs one window (nil tracer:
// untraced); unit names a unit of work in the notes.
func closedLoop(o *outcome, r *run, measure func(*tracer, time.Duration) (*loopWindow, error), setup, bestCost float64, unit string) (*tracer, error) {
	if !r.traced {
		w, err := measure(nil, r.window)
		if err != nil {
			return nil, err
		}
		n := float64(len(w.latMS))
		t := tail(w.latMS)
		o.set("setup_s", "s", setup)
		o.set("latency_p50_ms", "ms", median(w.latMS))
		o.set("latency_tail_ms", "ms", t.Value)
		o.set("iters_per_s", "1/s", float64(w.iterations)/w.genSec)
		o.set("goodput_rps", "1/s", n/w.elapsed.Seconds())
		// One closed-loop client sustains exactly its completion rate.
		o.set("sustained_rps", "1/s", n/w.elapsed.Seconds())
		o.set("best_cost", "cost", bestCost)
		o.set("alloc_mb_per_op", "MiB", w.allocMiB/n)
		o.set("heap_peak_mb", "MiB", w.peakMiB)
		o.note("%d units of work (%s) in a %.1fs window", len(w.latMS), unit, w.elapsed.Seconds())
		o.note("%s", tailNote(unit+" latency", t))
		return nil, nil
	}
	before, err := measure(nil, r.window/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o.spans = tr
	w, err := measure(tr, r.window)
	if err != nil {
		return nil, err
	}
	after, err := measure(nil, r.window/2)
	if err != nil {
		return nil, err
	}
	w.layers.fill(o)
	o.set("driver.lag_ms", "ms", median(w.lagMS))
	o.set("trace.overhead_share", "share", median(w.latMS)/median(append(before.latMS, after.latMS...))-1)
	o.note("traced: %d units of work (%s); untraced comparison: %d", len(w.latMS), unit, len(before.latMS)+len(after.latMS))
	return tr, nil
}

// iterClock turns Options.Progress callbacks into iteration boundaries.
// Progress fires after every MCTS iteration (and on every improvement in
// between); an iteration ends at the first callback that reports it.
// Elapsed is measured from the search's own start, so boundaries are
// anchored at (first callback time − its Elapsed).
type iterClock struct {
	start time.Time
	ends  []time.Time
	last  int
}

func (c *iterClock) progress(p core.Progress) {
	if c.start.IsZero() {
		c.start = time.Now().Add(-p.Elapsed)
	}
	if p.Iterations > c.last {
		c.last = p.Iterations
		c.ends = append(c.ends, c.start.Add(p.Elapsed))
	}
}

// searchTrace records one search's spans: the Generate call, one span per
// iteration and the final extraction (last iteration end → Generate
// return), all children of gen.
func searchTrace(tr *tracer, req, parent uint64, op string, c *iterClock, genStart, genEnd time.Time) (iterMS []float64, extractMS float64) {
	gen := span{ID: tr.id(), Parent: parent, Req: req, Layer: "core", Op: op}
	prev := c.start
	for _, end := range c.ends {
		tr.record(span{Parent: gen.ID, Req: req, Layer: "mcts", Op: op}, prev, end)
		iterMS = append(iterMS, ms(end.Sub(prev)))
		prev = end
	}
	if len(c.ends) > 0 {
		tr.record(span{Parent: gen.ID, Req: req, Layer: "extract", Op: op}, prev, genEnd)
		extractMS = ms(genEnd.Sub(prev))
	}
	tr.record(gen, genStart, genEnd)
	return iterMS, extractMS
}

// searchLayers accumulates the search-side per-layer numbers over a
// traced window.
type searchLayers struct {
	ops                         int
	iterMS, extractMS           []float64
	iterations, evals, rollouts int
	reroots, warm               int
	hits, misses, evictions     int64
}

func (l *searchLayers) add(st core.Stats, iterMS []float64, extractMS float64) {
	l.ops++
	l.iterMS = append(l.iterMS, iterMS...)
	if len(iterMS) > 0 {
		l.extractMS = append(l.extractMS, extractMS)
	}
	l.iterations += st.Iterations
	l.evals += st.Evals
	l.rollouts += st.Rollouts
	if st.ReRooted {
		l.reroots++
	}
	if st.WarmStarted {
		l.warm++
	}
}

// addCache adds one cache's counter deltas over the ops it served.
func (l *searchLayers) addCache(hits, misses, evictions int64) {
	l.hits += hits
	l.misses += misses
	l.evictions += evictions
}

func (l *searchLayers) fill(o *outcome) {
	n := float64(max(l.ops, 1))
	o.set("mcts.iter_ms", "ms", median(l.iterMS))
	o.set("mcts.iterations", "count", float64(l.iterations)/n)
	o.set("mcts.evals_per_iter", "count", float64(l.evals)/float64(max(l.iterations, 1)))
	o.set("mcts.rollouts", "count", float64(l.rollouts)/n)
	o.set("core.extract_ms", "ms", median(l.extractMS))
	o.set("core.reroot_share", "share", float64(l.reroots)/n)
	o.set("core.warmstart_share", "share", float64(l.warm)/n)
	ratio := 0.0
	if l.hits+l.misses > 0 {
		ratio = float64(l.hits) / float64(l.hits+l.misses)
	}
	o.set("eval.cache_hit_ratio", "share", ratio)
	o.set("eval.cache_evictions", "count", float64(l.evictions)/n)
	o.note("search layers: %d ops, %d iteration spans, %d extraction spans", l.ops, len(l.iterMS), len(l.extractMS))
}

// fillSelfTimes reports each layer's self time per unit of work that
// entered it (see tracer.selfTimes); layers without spans stay unset.
func fillSelfTimes(o *outcome, tr *tracer) {
	self := tr.selfTimes()
	for _, layer := range []string{"sqlparser", "core", "mcts", "extract", "bench", "client", "router", "server"} {
		if v, ok := self[layer]; ok {
			o.set("self."+layer+"_ms", "ms", v)
		}
	}
}
