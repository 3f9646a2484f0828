// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall-clock window, checks every output
// against an independently computed reference, prints each metric by name
// with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around calls into each layer and reports per-layer metrics
// instead (see README.md for both lists and the workloads).
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload cold-sdss --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are reported by every workload with -trace 0, in this order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"iters_per_s", "1/s"},
	{"goodput_rps", "1/s"},
	{"sustained_rps", "1/s"},
	{"best_cost", "cost"},
	{"alloc_mb_per_op", "MiB"},
	{"heap_peak_mb", "MiB"},
}

// layerMetrics are reported by every workload with -trace 1. A workload
// reports those of the layers it never enters (servingMetrics, outside
// serve-mixed) as 0 and names them in its notes.
var layerMetrics = []struct{ name, unit string }{
	{"mcts.iter_ms", "ms"},
	{"mcts.iterations", "count"},
	{"mcts.evals_per_iter", "count"},
	{"mcts.rollouts", "count"},
	{"core.extract_ms", "ms"},
	{"core.reroot_share", "share"},
	{"core.warmstart_share", "share"},
	{"eval.cache_hit_ratio", "share"},
	{"eval.cache_evictions", "count"},
	{"eval.moves_us", "us"},
	{"eval.moves_allocs", "count"},
	{"eval.legal_us", "us"},
	{"eval.cost_us", "us"},
	{"eval.moves_warm_us", "us"},
	{"difftree.expressible_us", "us"},
	{"rules.moves_us", "us"},
	{"rules.fanout", "count"},
	{"cost.evaluate_us", "us"},
	{"core.best_interface_ms", "ms"},
	{"sqlparser.parse_us", "us"},
	{"server.handler_ms.generate", "ms"},
	{"server.handler_ms.append", "ms"},
	{"server.handler_ms.interact", "ms"},
	{"server.handler_ms.export", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.refused_share", "share"},
	{"router.hop_ms", "ms"},
	{"router.affinity_share", "share"},
	{"api.resp_bytes.generate", "bytes"},
	{"api.resp_bytes.append", "bytes"},
	{"api.resp_bytes.interact", "bytes"},
	{"api.resp_bytes.export", "bytes"},
	{"driver.lag_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"self.sqlparser_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.mcts_ms", "ms"},
	{"self.extract_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.client_ms", "ms"},
	{"self.router_ms", "ms"},
	{"self.server_ms", "ms"},
}

// servingMetrics are the per-layer metrics of the HTTP layers (client,
// router, replica handler, wire). Only serve-mixed sends requests through
// them.
var servingMetrics = map[string]bool{
	"server.handler_ms.generate": true,
	"server.handler_ms.append":   true,
	"server.handler_ms.interact": true,
	"server.handler_ms.export":   true,
	"server.queue_wait_ms":       true,
	"server.refused_share":       true,
	"router.hop_ms":              true,
	"router.affinity_share":      true,
	"api.resp_bytes.generate":    true,
	"api.resp_bytes.append":      true,
	"api.resp_bytes.interact":    true,
	"api.resp_bytes.export":      true,
	"self.client_ms":             true,
	"self.router_ms":             true,
	"self.server_ms":             true,
}

// entered reports whether workload exercises the layer metric name
// measures.
func entered(workload, name string) bool {
	return workload == "serve-mixed" || !servingMetrics[name]
}

// run is one invocation's settings.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// smoke shrinks every size (iterations, sessions, logs) so the tests
	// can exercise each workload's wiring in seconds.
	smoke bool
}

// outcome is what a workload reports.
type outcome struct {
	attempted int
	failed    int
	wrong     []string // first few wrong outputs, for the log
	metrics   map[string]metric
	notes     []string // sample counts, tail percentiles, per-op detail
	spans     *tracer  // non-nil for traced runs
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted output; a non-nil err marks it wrong.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.wrong) < 10 {
			o.wrong = append(o.wrong, err.Error())
		}
	}
}

var workloads = map[string]func(context.Context, *run) (*outcome, error){
	"cold-sdss":    runCold,
	"session-join": runSessionJoin,
	"serve-mixed":  runServeMixed,
}

func main() {
	name := flag.String("workload", "", "workload: cold-sdss, session-join or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 15, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for the span file of traced runs")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
	}
	o, err := fn(context.Background(), r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := o.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if err := report(os.Stdout, r, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if o.failed > 0 {
		os.Exit(1)
	}
}

// report prints the notes, one line per metric, and the closing JSON line.
func report(w *os.File, r *run, o *outcome) error {
	want := e2eMetrics
	if r.traced {
		want = layerMetrics
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, s := range o.wrong {
		fmt.Fprintf(w, "WRONG: %s\n", s)
	}
	metrics := make(map[string]metric, len(want))
	var skipped []string
	for _, m := range want {
		v, ok := o.metrics[m.name]
		if !ok && r.traced && !entered(r.workload, m.name) {
			v, ok = metric{0, m.unit}, true
			skipped = append(skipped, m.name)
		}
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("workload %s did not measure %s (%s): %+v", r.workload, m.name, m.unit, v)
		}
		metrics[m.name] = v
		fmt.Fprintf(w, "%-28s %16.6f %s\n", m.name, v.Value, v.Unit)
	}
	if len(skipped) > 0 {
		fmt.Fprintf(w, "not entered by %s, reported as 0: %v\n", r.workload, skipped)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// deriveSeeds expands the workload seed into n positive search seeds, so a
// run averages over several search trajectories while staying a pure
// function of its argument.
func deriveSeeds(seed int64, salt uint64, n int) []int64 {
	out := make([]int64, n)
	// Mixing the seed first keeps the streams of neighbouring seeds apart
	// (a plain seed*constant start would make seed+1's stream a shifted
	// copy of seed's).
	x := splitmix(uint64(seed) ^ splitmix(salt))
	for i := range out {
		x += 0x9e3779b97f4a7c15
		out[i] = int64(splitmix(x)>>33) + 1
	}
	return out
}

// splitmix is the SplitMix64 finalizer.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// setupTime runs one set-up step reps times per batch over several
// batches and returns the median per-step time in seconds.
func setupTime(batches, reps int, step func() error) (float64, error) {
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := step(); err != nil {
				return 0, err
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(reps))
	}
	return median(per), nil
}

// tailNote formats a tail for the notes.
func tailNote(label string, t tailStat) string {
	if !t.Supported {
		return fmt.Sprintf("%s: %d samples support no tail above the median; tail reports p50 = %.3f ms", label, t.N, t.Value)
	}
	return fmt.Sprintf("%s: tail p%.1f = %.3f ms (%d samples, %d beyond)", label, t.Pct, t.Value, t.N, t.Beyond)
}

// sortedKeys returns m's keys in order, for deterministic notes.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parallel runs fn(0..n-1) on at most two goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	workers := min(n, 2, runtime.NumCPU())
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}
