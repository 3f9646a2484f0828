package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/layout"
)

// tiny returns a minimal-budget config so the smoke tests stay fast.
func tiny() Config { return Config{Iterations: 3, RolloutDepth: 4, Seed: 1} }

func TestNamedCoversDesignIndex(t *testing.T) {
	for _, e := range Index {
		if _, ok := Named(e.ID); !ok {
			t.Errorf("experiment %q does not resolve", e.ID)
		}
	}
	if _, ok := Named("all"); !ok {
		t.Error(`"all" does not resolve`)
	}
	if _, ok := Named("nope"); ok {
		t.Error("unknown id should miss")
	}
}

// TestIndex runs every experiment at the tiny budget and checks that it
// succeeds and its report carries the lines the experiment exists for.
func TestIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	want := map[string][]string{
		"fig6a":    {"cost=", "widgets="},
		"fig6b":    {"cost=", "widgets="},
		"fig6c":    {"cost=", "widgets="},
		"fig6d":    {"searched", "random walk"},
		"fig6e":    {"SDSS-form-style", "generated (MCTS)"},
		"space":    {"fanout=", "random path"},
		"baseline": {"figure-1", "sdss"},
	}
	for id := range want {
		if _, ok := Named(id); !ok {
			t.Fatalf("want lists unknown experiment %q", id)
		}
	}
	for _, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(context.Background(), tiny())
			if err != nil {
				t.Fatalf("%v; report so far:\n%s", err, out)
			}
			for _, s := range want[e.ID] {
				if !strings.Contains(out, s) {
					t.Errorf("report lacks %q:\n%s", s, out)
				}
			}
		})
	}
}

func TestFigureEmptyLogFails(t *testing.T) {
	out, err := figure("empty", nil, layout.Wide)(context.Background(), tiny())
	if err == nil {
		t.Fatalf("no error on an empty log; report:\n%s", out)
	}
	if !strings.HasPrefix(out, "== empty ==") {
		t.Errorf("report lost its header: %q", out)
	}
}
