// Command experiments regenerates the paper's figures and claims and prints
// plain-text reports, one per experiment id (the index experiments.Named
// resolves, listed below).
//
// Usage:
//
//	experiments [-run all|fig6a|fig6b|fig6c|fig6d|fig6e|space|budget|
//	             baseline|strategies|ablation-c|ablation-rollout|scaling]
//	            [-iters n] [-rollout n] [-seed n] [-timeout d]
//
// The search settings default to experiments.Default().
//
// Experiments honor Ctrl-C (and -timeout): the run stops promptly and the
// reports produced so far are kept.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id (fig6a..fig6e, space, budget, baseline, strategies, ablation-c, ablation-rollout, scaling, all) or comma-separated list")
	cfg := experiments.Default()
	flag.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "search iterations per generated interface")
	flag.IntVar(&cfg.RolloutDepth, "rollout", cfg.RolloutDepth, "rollout depth during search")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "base seed")
	timeout := flag.Duration("timeout", 0, "overall wall-clock cap for the run (0 = none)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		f, ok := experiments.Named(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Print(f(ctx, cfg))
		fmt.Println()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: run cancelled; partial reports above")
			break
		}
	}
	fmt.Printf("total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}
