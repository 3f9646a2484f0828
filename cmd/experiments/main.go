// Command experiments regenerates the paper's figures and claims and prints
// plain-text reports, one per experiment id (the rows of experiments.Index;
// -h lists them).
//
// Usage:
//
//	experiments [-run all|<id>[,<id>...]] [-iters n] [-rollout n] [-seed n] [-timeout d]
//
// The search settings default to experiments.Default().
//
// Experiments honor Ctrl-C (and -timeout): the run stops promptly and the
// reports produced so far are kept. An experiment that fails prints its
// report so far, and the command exits non-zero with the error.
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
	ids := make([]string, 0, len(experiments.Index)+1)
	for _, e := range experiments.Index {
		ids = append(ids, e.ID)
	}
	run := flag.String("run", "all", "experiment id ("+strings.Join(append(ids, "all"), ", ")+") or comma-separated list")
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
		report, err := f(ctx, cfg)
		fmt.Print(report)
		fmt.Println()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: run cancelled; partial reports above")
			break
		}
	}
	fmt.Printf("total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}
