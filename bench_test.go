package mctsui

// Root-parallel scaling and micro-benchmarks for the hot paths. The paper's
// figures and sweeps run from one index, `go run ./cmd/experiments -run
// <id>`; search speed and allocations per cache mode are measured and gated
// by cmd/searchbench.

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/difftree"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/layout"
	"repro/internal/rules"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// BenchmarkGenerateWorkers measures root-parallelization scaling: the same
// search budget per worker, 1 to 8 workers (experiment P1). Wall-clock per
// op should stay near-flat while total iterations scale with the worker
// count — regressions here mean the workers serialized somewhere.
func BenchmarkGenerateWorkers(b *testing.B) {
	log := workload.SDSSLog()
	opt := core.Options{Screen: layout.Wide, Iterations: 15, RolloutDepth: 8, Seed: 1}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(workers)+"workers", func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := core.GenerateParallel(context.Background(), log, opt, workers)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cost.Total()
			}
			b.ReportMetric(last, "cost")
		})
	}
}

// Micro-benchmarks for the hot paths.

func BenchmarkParseSDSSQuery(b *testing.B) {
	src := workload.SDSSLogSQL()[0]
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpressSDSS(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !difftree.Expressible(init, log[i%len(log)]) {
			b.Fatal("inexpressible")
		}
	}
}

func BenchmarkMovesSDSS(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rules.Moves(init, log, rules.All())) == 0 {
			b.Fatal("no moves")
		}
	}
}

func BenchmarkStateCost(b *testing.B) {
	log := workload.SDSSLog()
	init, err := difftree.Initial(log)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.Default(layout.Wide)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.SampledCost(init, log, model, 5, rng)
	}
}

func BenchmarkEngineExec(b *testing.B) {
	db := engine.SDSSDB(5000, 1)
	q := sqlparser.MustParse(workload.SDSSLogSQL()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Exec(db, q); err != nil {
			b.Fatal(err)
		}
	}
}
