package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks the wiring: outputs verified, every metric reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches and an in-process fleet")
	}
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			r := &run{workload: name, seed: 3, window: 1500 * time.Millisecond, traced: traced, smoke: true}
			o, err := workloads[name](context.Background(), r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d outputs wrong: %v", name, traced, o.failed, o.attempted, o.wrong)
			}
			devnull, err := os.Create(os.DevNull)
			if err != nil {
				t.Fatal(err)
			}
			err = report(devnull, r, o)
			devnull.Close()
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

func TestDeriveSeedsDeterministicAndPositive(t *testing.T) {
	a, b := deriveSeeds(7, 1, 5), deriveSeeds(7, 1, 5)
	for i := range a {
		if a[i] != b[i] || a[i] <= 0 {
			t.Fatalf("seeds %v / %v", a, b)
		}
	}
	// Neighbouring workload seeds must not share search seeds.
	seen := map[int64]int64{}
	for seed := int64(0); seed < 50; seed++ {
		for _, s := range deriveSeeds(seed, 1, 5) {
			if prev, ok := seen[s]; ok {
				t.Fatalf("workload seeds %d and %d share search seed %d", prev, seed, s)
			}
			seen[s] = seed
		}
	}
}
