package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// TestMovesMatchesRulesMoves pins the engine's enumerator — the
// rules.MatchKinds prefilter, arena-built candidates and the LegalState
// gate — against the reference enumerator: on seeded random-walk states of
// the SDSS and SDSS-join logs, the uncached Engine.Moves must equal
// rules.Moves restricted to moves whose result fits SizeCap, in the same
// order.
func TestMovesMatchesRulesMoves(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  []*ast.Node
	}{
		{"sdss", workload.SDSSLog()},
		{"sdss-join", workload.SDSSJoinLog()},
	} {
		init, err := difftree.Initial(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		sizeCap := sizeCapFor(init)
		eng := New(Config{Log: tc.log, Rules: rules.All(), SizeCap: sizeCap}, nil)
		rng := rand.New(rand.NewSource(1))
		states := 0
		for walk := 0; walk < 3; walk++ {
			d := init
			for step := 0; step < 6; step++ {
				var want []rules.Move
				for _, m := range rules.Moves(d, tc.log, rules.All()) {
					if next, err := rules.ApplyMove(d, m); err == nil && next.Size() <= sizeCap {
						want = append(want, m)
					}
				}
				if got := eng.Moves(d); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s walk %d step %d: Engine.Moves = %v, want %v", tc.name, walk, step, got, want)
				}
				states++
				if len(want) == 0 {
					break
				}
				if d, err = rules.ApplyMove(d, want[rng.Intn(len(want))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if states < 10 {
			t.Errorf("%s: only %d states compared", tc.name, states)
		}
	}
}
