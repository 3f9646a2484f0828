package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/workload"
)

const (
	searchLane = 0
	readLane   = 1
)

// serveScenario is a generated traffic mix plus the references its checks
// use.
type serveScenario struct {
	sqls        []string
	iters       int
	sessSeeds   []int64
	chains      [][]float64 // per session: cost after each append
	readSeed    int64
	readCost    float64
	genSQL      []string // the one-shot generate's log
	createSeed  int64    // every session's first append
	genSeed     int64
	genCost     float64
	readSession []string
	sessions    []string // names of the sessions the search lane appends to
}

// stepCounts returns, per rate step of a window, how many requests of each
// kind (in ops order) it offers: each class's rate times the step's length,
// split by the class's mix (largest remainder), so the counts depend on the
// window alone.
func stepCounts(window time.Duration) [][nOps]int {
	stepLen := window / time.Duration(len(rateScales))
	var out [][nOps]int
	for _, scale := range rateScales {
		var counts [nOps]int
		for _, c := range classes {
			n := int(math.Round(c.rate * scale * stepLen.Seconds()))
			total := 0
			for _, w := range c.mix {
				total += w
			}
			var rem [nOps]float64
			left := n
			for i, w := range c.mix {
				q := float64(n*w) / float64(total)
				counts[i] += int(q)
				rem[i] = q - float64(int(q))
				left -= int(q)
			}
			for ; left > 0; left-- {
				best := 0
				for i := range rem {
					if rem[i] > rem[best] {
						best = i
					}
				}
				counts[best]++
				rem[best] = -1
			}
		}
		out = append(out, counts)
	}
	return out
}

// countOf sums the requests of kind op over a window's steps.
func countOf(op string, counts [][nOps]int) int {
	n := 0
	for _, c := range counts {
		for i, name := range ops {
			if name == op {
				n += c[i]
			}
		}
	}
	return n
}

// newServeScenario fixes the searches a window's traffic asks for — enough
// sessions that every append in the window extends one by a single query
// — and computes their in-process references (two at a time; set-up is not
// measured). Their search seeds are constants, not derived from the
// workload seed: the workload seed drives the arrival jitter, the order of
// the ops and the read targets (see traffic), so every run serves the
// same search work and a serving change is measured on it.
func newServeScenario(ctx context.Context, smoke bool, window time.Duration) (*serveScenario, error) {
	sdss := workload.SDSSLogSQL()
	sc := &serveScenario{sqls: sdss[:serveFirst+serveAppends], genSQL: sdss[:serveGenQueries], iters: serveIterations}
	first := serveFirst
	if smoke {
		sc.sqls, sc.genSQL, sc.iters, first = sdss[:3], sdss[:2], 2, 2
	}
	perSession := len(sc.sqls) - first
	nsess := (countOf("append", stepCounts(window)) + perSession - 1) / perSession
	seeds := deriveSeeds(serveSearchSeed, 4, nsess+3)
	sc.readSeed, sc.genSeed, sc.createSeed, sc.sessSeeds = seeds[0], seeds[1], seeds[2], seeds[3:]
	sc.chains = make([][]float64, nsess)
	for i := 0; i < readSessions; i++ {
		sc.readSession = append(sc.readSession, fmt.Sprintf("read-%d", i))
	}
	for i, s := range sc.sessSeeds {
		sc.sessions = append(sc.sessions, fmt.Sprintf("s%d-%d", s, i))
	}
	err := parallel(nsess+2, func(i int) error {
		var err error
		switch {
		case i < nsess:
			sc.chains[i], err = sessionRefs(ctx, sc.sqls, first, sc.iters, sc.createSeed, sc.sessSeeds[i])
		case i == nsess:
			var c []float64
			c, err = sessionRefs(ctx, sc.sqls, len(sc.sqls), sc.iters, sc.readSeed, sc.readSeed)
			if err == nil {
				sc.readCost = c[0]
			}
		default:
			sc.genCost, err = generateRef(ctx, sc.genSQL, sc.iters, sc.genSeed)
		}
		return err
	})
	return sc, err
}

func (sc *serveScenario) first() int { return len(sc.sqls) - len(sc.chains[0]) + 1 }

// warm creates the read sessions and the search lane's sessions (their
// first append) and runs the generate once, so measured reads find their
// sessions, measured appends extend a session by one query each, and
// measured generates find a warm cache.
func (sc *serveScenario) warm() []*request {
	var out []*request
	for _, id := range sc.readSession {
		out = append(out, appendReq(id, sc.sqls, sc.iters, sc.readSeed, sc.readCost))
	}
	for s, id := range sc.sessions {
		out = append(out, appendReq(id, sc.sqls[:sc.first()], sc.iters, sc.createSeed, sc.chains[s][0]))
	}
	return append(out, generateReq(sc.genSQL, sc.iters, sc.genSeed, sc.genCost))
}

// traffic builds the window's schedule from the workload seed. Each rate
// step offers stepCounts' requests: the searches (appends and generates,
// interleaved) evenly spread over the step on the search lane, the reads
// (interacts and exports, interleaved) evenly spread on the read lane,
// each due time with a little seeded jitter. Appends go round-robin over
// the sessions, one query each; generates repeat one log; reads pick a
// read session at random.
func (sc *serveScenario) traffic(seed int64, window time.Duration) []*request {
	rng := rand.New(rand.NewSource(seed))

	first := sc.first()
	var queue []*request // every session's appends, round-robin
	for k := 1; k < len(sc.chains[0]); k++ {
		for s, seed := range sc.sessSeeds {
			q := sc.sqls[first-1+k : first+k]
			queue = append(queue, appendReq(sc.sessions[s], q, sc.iters, seed, sc.chains[s][k]))
		}
	}

	var out []*request
	stepLen := window / time.Duration(len(rateScales))
	for step, counts := range stepCounts(window) {
		search := interleave(rng, []string{"generate", "append"}, counts[0:2])
		read := interleave(rng, []string{"interact", "export"}, counts[2:4])
		for lane, kinds := range [][]string{searchLane: search, readLane: read} {
			slot := float64(stepLen) / float64(len(kinds))
			for j, op := range kinds {
				var r *request
				switch op {
				case "generate":
					r = generateReq(sc.genSQL, sc.iters, sc.genSeed, sc.genCost)
				case "append":
					r, queue = queue[0], queue[1:]
				case "interact":
					r = interactReq(sc.readSession[rng.Intn(len(sc.readSession))])
				default:
					r = exportReq(sc.readSession[rng.Intn(len(sc.readSession))], sc.readCost)
				}
				jitter := 0.4 + 0.2*rng.Float64()
				r.lane, r.step = lane, step
				r.due = time.Duration(step)*stepLen + time.Duration((float64(j)+jitter)*slot)
				out = append(out, r)
			}
		}
	}
	return out
}

// interleave spreads counts[i] copies of each kind as evenly as possible
// over one sequence (smooth weighted round-robin), from a seeded phase, so
// no stretch of the schedule crowds one kind together.
func interleave(rng *rand.Rand, kinds []string, counts []int) []string {
	total := 0
	for _, c := range counts {
		total += c
	}
	cur := make([]int, len(kinds))
	for i := range cur {
		cur[i] = rng.Intn(max(total, 1))
	}
	out := make([]string, 0, total)
	left := append([]int(nil), counts...)
	for len(out) < total {
		best := -1
		for i, c := range counts {
			if left[i] == 0 {
				continue
			}
			cur[i] += c
			if best < 0 || cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		left[best]--
		out = append(out, kinds[best])
	}
	return out
}

// lanes is the number of client connections: one per lane, but never more
// than the CPUs (a one-CPU machine runs both lanes on one connection).
func lanes() int { return min(2, runtime.NumCPU()) }

func assignLanes(reqs []*request) {
	if lanes() == 1 {
		for _, r := range reqs {
			r.lane = 0
		}
	}
}

// serveWindow is one measured window of the mixed traffic.
type serveWindow struct {
	reqs     []*request
	start    time.Time
	end      time.Time
	peakMiB  float64
	allocMiB float64
	liveMiB  float64 // live heap after the window, fleet still up
	before   *api.FleetStatsResponse
	after    *api.FleetStatsResponse
}

func runWindow(ctx context.Context, f *fleet, tr *tracer, reqs []*request) (*serveWindow, error) {
	w := &serveWindow{reqs: reqs}
	var err error
	if w.before, err = f.stats(ctx); err != nil {
		return nil, err
	}
	assignLanes(reqs)
	// Start every window from a collected heap, so garbage left by set-up
	// and warm-up does not decide when the window's first collection runs.
	runtime.GC()
	mem := watchMemory()
	w.start = execute(ctx, tr, f.url, reqs, lanes())
	w.end = time.Now()
	w.peakMiB, w.allocMiB = mem.finish()
	verify(reqs)
	if w.after, err = f.stats(ctx); err != nil {
		return nil, err
	}
	runtime.GC()
	w.liveMiB = float64(readMetric("/gc/heap/live:bytes")) / (1 << 20)
	return w, nil
}

func (w *serveWindow) latencies(keep func(*request) bool) []float64 {
	var out []float64
	for _, r := range w.reqs {
		if keep(r) {
			out = append(out, r.latency(w.start))
		}
	}
	return out
}

func all(*request) bool { return true }

// sustained returns the measured goodput of the highest rate step whose
// tail meets tailLimitMS, with no failed request and no backlog of more
// than tailLimitMS left at the step's end, or 0 when no step qualifies.
func (w *serveWindow) sustained(o *outcome, window time.Duration) float64 {
	stepLen := window / time.Duration(len(rateScales))
	best := 0.0
	for step := range rateScales {
		lo, hi := time.Duration(step)*stepLen, time.Duration(step+1)*stepLen
		var lat []float64
		ok, failed := 0, 0
		var last time.Time
		for _, r := range w.reqs {
			if r.step != step {
				continue
			}
			lat = append(lat, r.latency(w.start))
			if r.ok() {
				ok++
			} else {
				failed++
			}
			if r.done.After(last) {
				last = r.done
			}
		}
		t := tail(lat)
		backlog := last.Sub(w.start.Add(hi))
		good := float64(ok) / last.Sub(w.start.Add(lo)).Seconds()
		meets := t.Value <= tailLimitMS && failed == 0 && backlog <= tailLimitMS*time.Millisecond
		o.note("step %d: offered %.3g requests/s, %s, goodput %.2f/s, backlog %.1f ms, meets limit: %v",
			step, offered(step), tailNote("requests", t), good, ms(backlog), meets)
		if meets {
			best = good
		}
	}
	return best
}

// beyondTail counts, per op, the requests slower than the tail value.
func (w *serveWindow) beyondTail(t tailStat) map[string]int {
	out := map[string]int{}
	for _, r := range w.reqs {
		if r.latency(w.start) > t.Value {
			out[r.op]++
		}
	}
	return out
}

func runServeMixed(ctx context.Context, r *run) (*outcome, error) {
	// Set-up is the fleet's start to /readyz, a few milliseconds whose
	// run-to-run jitter needs the median of many starts.
	var setups []float64
	for i := 0; i < setupStarts; i++ {
		t0 := time.Now()
		f, err := startFleet(ctx, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f.close()
	}
	sc, err := newServeScenario(ctx, r.smoke, r.window)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	o := newOutcome()
	// measure runs the traffic on a fresh fleet after warming it up.
	measure := func(tr *tracer, window time.Duration) (*serveWindow, error) {
		f, err := startFleet(ctx, tr)
		if err != nil {
			return nil, err
		}
		defer f.close()
		warm := sc.warm()
		for _, rq := range warm {
			rq.closed = true
		}
		execute(ctx, nil, f.url, warm, 1)
		verify(warm)
		for _, rq := range warm {
			if !rq.ok() {
				return nil, fmt.Errorf("warm-up: %w", rq.err)
			}
		}
		return runWindow(ctx, f, tr, sc.traffic(r.seed, window))
	}

	if !r.traced {
		w, err := measure(nil, r.window)
		if err != nil {
			return nil, err
		}
		lat := w.latencies(all)
		t := tail(lat)
		okN, iters, searchSec := 0, 0, 0.0
		for _, rq := range w.reqs {
			o.check(rq.err)
			if rq.ok() {
				okN++
			}
			if rq.op == "append" && rq.ok() {
				iters += rq.iterations
				searchSec += rq.done.Sub(rq.dispatch).Seconds()
			}
		}
		n := float64(len(w.reqs))
		o.set("setup_s", "s", median(setups))
		o.set("latency_p50_ms", "ms", median(lat))
		o.set("latency_tail_ms", "ms", t.Value)
		o.set("iters_per_s", "1/s", float64(iters)/searchSec)
		o.set("goodput_rps", "1/s", float64(okN)/w.end.Sub(w.start).Seconds())
		o.set("sustained_rps", "1/s", w.sustained(o, r.window))
		o.set("best_cost", "cost", sc.meanFinalCost())
		o.set("alloc_mb_per_op", "MiB", w.allocMiB/n)
		o.set("heap_peak_mb", "MiB", w.peakMiB)
		o.note("serve-mixed: %d requests over %.1fs, %d sessions %v, %d iterations per search, %d client connections",
			len(w.reqs), w.end.Sub(w.start).Seconds(), len(sc.sessSeeds), sc.sessSeeds, sc.iters, lanes())
		o.note("%s; beyond it: %v", tailNote("all requests", t), w.beyondTail(t))
		o.note("after the window: replica caches hold %d states (%d evictions in the window), live heap %.0f MiB",
			w.after.Cache.Entries, w.after.Cache.Evictions-w.before.Cache.Evictions, w.liveMiB)
		for _, op := range []string{"append", "generate", "interact", "export"} {
			opLat := w.latencies(func(rq *request) bool { return rq.op == op })
			var service, lag []float64
			for _, rq := range w.reqs {
				if rq.op == op {
					service = append(service, ms(rq.done.Sub(rq.dispatch)))
					lag = append(lag, ms(rq.lag))
				}
			}
			o.note("op %-8s %4d samples, p50 %.3f ms, %s; service p50 %.3f ms, tail %.3f ms; dispatch lag p50 %.3f ms",
				op, len(opLat), median(opLat), tailNote("tail", tail(opLat)), median(service), tail(service).Value, median(lag))
		}
		return o, nil
	}

	// Untraced half windows before and after the traced one give the
	// tracing overhead without favouring either order.
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
	for _, rq := range w.reqs {
		o.check(rq.err)
	}
	servingLayers(o, tr, w)
	var lag []float64
	for _, rq := range w.reqs {
		lag = append(lag, ms(rq.lag))
	}
	o.set("driver.lag_ms", "ms", median(lag))
	o.set("trace.overhead_share", "share", median(w.latencies(all))/median(append(before.latencies(all), after.latencies(all)...))-1)

	// The search and engine layers on the served searches: the first
	// session's appends replayed in process, traced, on the daemon's path.
	var layers searchLayers
	cache := mctsui.NewCache(0)
	err = appendChain(ctx, sc.sqls, sc.first(), serveOpts(sc.iters, sc.sessSeeds[0]), []mctsui.Option{mctsui.WithSeed(sc.createSeed)}, cache, true, func(s appendStep) error {
		req, root := tr.id(), tr.id()
		tr.record(span{Parent: root, Req: req, Layer: "sqlparser", Op: "append"}, s.start, s.parseEnd)
		iterMS, extractMS := searchTrace(tr, req, root, "append", s.clock, s.parseEnd, s.end)
		tr.record(span{ID: root, Req: req, Layer: "bench", Op: "append"}, s.start, s.end)
		layers.add(s.iface.Stats(), iterMS, extractMS)
		if s.n == len(sc.sqls) {
			final, err := diffTreeOf(s.iface)
			if err != nil {
				return err
			}
			return layerReplay(o, tr, sc.sqls, final, sc.sessSeeds[0], r.smoke)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	layers.fill(o)
	// The cache hit ratio that matters here is the daemons' own.
	hits := w.after.Cache.Hits - w.before.Cache.Hits
	misses := w.after.Cache.Misses - w.before.Cache.Misses
	o.set("eval.cache_hit_ratio", "share", float64(hits)/float64(max(hits+misses, 1)))
	o.set("eval.cache_evictions", "count", float64(w.after.Cache.Evictions-w.before.Cache.Evictions))
	fillSelfTimes(o, tr)
	o.note("serve-mixed traced: %d requests (untraced comparison: %d)", len(w.reqs), len(before.reqs)+len(after.reqs))
	return o, nil
}

func (sc *serveScenario) meanFinalCost() float64 {
	t := 0.0
	for _, c := range sc.chains {
		t += c[len(c)-1]
	}
	return t / float64(len(sc.chains))
}

// servingLayers fills the server, router and api metrics from a
// traced window's requests, spans and /v1/stats deltas.
func servingLayers(o *outcome, tr *tracer, w *serveWindow) {
	ops := []string{"generate", "append", "interact", "export"}
	for _, op := range ops {
		o.set("server.handler_ms."+op, "ms", median(tr.byLayer("server", op)))
		var bytes []float64
		for _, r := range w.reqs {
			if r.op == op && r.ok() {
				bytes = append(bytes, float64(r.bytes))
			}
		}
		o.set("api.resp_bytes."+op, "bytes", mean(bytes))
	}
	served := w.after.Admission.Served - w.before.Admission.Served
	waitMS := w.after.Admission.QueueWaitMS - w.before.Admission.QueueWaitMS
	o.set("server.queue_wait_ms", "ms", waitMS/float64(max(served, 1)))
	refused := (w.after.Admission.Overflow429 - w.before.Admission.Overflow429) +
		(w.after.Admission.QueueTimeout503 - w.before.Admission.QueueTimeout503) +
		(w.after.Admission.Draining503 - w.before.Admission.Draining503)
	o.set("server.refused_share", "share", float64(refused)/float64(len(w.reqs)))

	// Router hop: router span minus the replica span it caused.
	byReq := map[uint64]map[string]span{}
	for _, s := range tr.snapshot() {
		if s.Layer == "router" || s.Layer == "server" {
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string]span{}
			}
			byReq[s.Req][s.Layer] = s
		}
	}
	var hops []float64
	for _, r := range w.reqs {
		pair := byReq[r.traceReq]
		rs, ok1 := pair["router"]
		ss, ok2 := pair["server"]
		if ok1 && ok2 {
			hops = append(hops, ms(rs.dur()-ss.dur()))
		}
	}
	o.set("router.hop_ms", "ms", median(hops))

	// Affinity: session requests answered by the replica that created the
	// session (the warm-up created the read sessions).
	owner := map[string]string{}
	same, total := 0, 0
	for _, r := range w.reqs {
		if r.session == "" || !r.ok() {
			continue
		}
		if _, ok := owner[r.session]; !ok {
			owner[r.session] = r.replica
			continue
		}
		total++
		if owner[r.session] == r.replica {
			same++
		}
	}
	o.set("router.affinity_share", "share", float64(same)/float64(max(total, 1)))

	counts := map[string]int{}
	for _, r := range w.reqs {
		counts[r.op]++
	}
	for _, op := range sortedKeys(counts) {
		o.note("traced op %-8s %4d requests, %d server spans", op, counts[op], len(tr.byLayer("server", op)))
	}
}

// setupStarts is how many fleet starts serve-mixed's setup_s is the median of.
const setupStarts = 301
