package workload

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
	"repro/internal/sqlparser"
)

func TestSDSSLogMatchesListing1(t *testing.T) {
	log := SDSSLog()
	if len(log) != 10 {
		t.Fatalf("Listing 1 has 10 queries, got %d", len(log))
	}
	// Query 1: select top 10 objid from stars where ...
	q1 := log[0]
	if q1.ChildOfKind(ast.KindTop).Value != "10" {
		t.Error("q1 TOP wrong")
	}
	if q1.ChildOfKind(ast.KindFrom).Children[0].Value != "stars" {
		t.Error("q1 table wrong")
	}
	// Query 4: count(*) aggregate, no TOP.
	q4 := log[3]
	if q4.ChildOfKind(ast.KindTop) != nil {
		t.Error("q4 has no TOP")
	}
	if q4.ChildOfKind(ast.KindProject).Children[0].Kind != ast.KindFuncExpr {
		t.Error("q4 should project count(*)")
	}
	// All queries share the WHERE structure: And of 4 Betweens.
	for i, q := range log {
		where := q.ChildOfKind(ast.KindWhere)
		if where == nil {
			t.Fatalf("q%d missing WHERE", i+1)
		}
		and := where.Children[0]
		if and.Kind != ast.KindAnd || len(and.Children) != 4 {
			t.Fatalf("q%d WHERE shape wrong: %s", i+1, and)
		}
		for _, c := range and.Children {
			if c.Kind != ast.KindBetween {
				t.Fatalf("q%d conjunct not BETWEEN", i+1)
			}
		}
	}
	// Queries 6-8 share identical WHERE clauses (Figure 6(c) precondition).
	w6 := log[5].ChildOfKind(ast.KindWhere)
	for _, i := range []int{6, 7} {
		if !ast.Equal(w6, log[i].ChildOfKind(ast.KindWhere)) {
			t.Errorf("q6 and q%d WHERE differ", i+1)
		}
	}
	// Query 2's literals differ from query 1's (printed in Listing 1).
	if ast.Equal(log[0].ChildOfKind(ast.KindWhere), log[1].ChildOfKind(ast.KindWhere)) {
		t.Error("q1 and q2 WHERE should differ")
	}
	// All ten queries are distinct.
	if len(ast.Dedup(log)) != 10 {
		t.Error("queries must be distinct")
	}
}

func TestSDSSLogRoundTrips(t *testing.T) {
	for i, src := range SDSSLogSQL() {
		n, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatalf("q%d: %v", i+1, err)
		}
		if !ast.Equal(n, sqlparser.MustParse(sqlparser.Render(n))) {
			t.Errorf("q%d does not round-trip", i+1)
		}
	}
}

func TestSDSSSubset(t *testing.T) {
	sub := SDSSSubset(6, 8)
	if len(sub) != 3 {
		t.Fatalf("subset 6-8 = %d queries", len(sub))
	}
	tops := []string{"10", "100", "1000"}
	for i, q := range sub {
		if q.ChildOfKind(ast.KindTop).Value != tops[i] {
			t.Errorf("query %d TOP = %v", 6+i, q.ChildOfKind(ast.KindTop))
		}
	}
	if SDSSSubset(8, 6) != nil {
		t.Error("inverted range should be empty")
	}
	if len(SDSSSubset(-3, 99)) != 10 {
		t.Error("clamping failed")
	}
}

func TestPaperFigure1Log(t *testing.T) {
	log := PaperFigure1Log()
	if len(log) != 3 {
		t.Fatal("figure 1 has 3 queries")
	}
	if log[2].ChildOfKind(ast.KindWhere) != nil {
		t.Error("q3 has no WHERE")
	}
	d, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	if !difftree.ExpressibleAll(d, log) {
		t.Error("initial difftree must express the log")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != cfg.Queries {
		t.Fatalf("generated %d queries", len(a))
	}
	for i := range a {
		if !ast.Equal(a[i], b[i]) {
			t.Fatal("same seed must generate the same log")
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := Generate(cfg2)
	same := true
	for i := range a {
		if !ast.Equal(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateShapes(t *testing.T) {
	cfg := GenConfig{Queries: 30, Tables: 2, Projections: 3, TopValues: 2,
		Predicates: 3, PredColumns: 3, LiteralVars: 2, OptWhere: true, Seed: 7}
	log := Generate(cfg)
	sawWhere, sawNoWhere, sawTop, sawCount := false, false, false, false
	for _, q := range log {
		if q.Kind != ast.KindSelect {
			t.Fatal("non-select generated")
		}
		if w := q.ChildOfKind(ast.KindWhere); w != nil {
			sawWhere = true
			and := w.Children[0]
			if and.Kind != ast.KindAnd || len(and.Children) != 3 {
				t.Fatalf("predicate count wrong: %s", and)
			}
		} else {
			sawNoWhere = true
		}
		if q.ChildOfKind(ast.KindTop) != nil {
			sawTop = true
		}
		if p := q.ChildOfKind(ast.KindProject); p.Children[0].Kind == ast.KindFuncExpr {
			sawCount = true
		}
	}
	if !sawWhere || !sawNoWhere {
		t.Error("OptWhere should yield both shapes")
	}
	if !sawTop || !sawCount {
		t.Error("generator should produce TOP and count(*) variants")
	}
	// The whole log must be expressible from its initial difftree.
	d, err := difftree.Initial(log)
	if err != nil {
		t.Fatal(err)
	}
	if !difftree.ExpressibleAll(d, log) {
		t.Error("generated log inexpressible from initial state")
	}
}

func TestGenerateEdges(t *testing.T) {
	if Generate(GenConfig{Queries: 0}) != nil {
		t.Error("zero queries → nil")
	}
	one := Generate(GenConfig{Queries: 1, Tables: 1, Projections: 1, Seed: 1})
	if len(one) != 1 {
		t.Error("single query generation failed")
	}
	// No predicates → no WHERE.
	noPred := Generate(GenConfig{Queries: 5, Tables: 1, Projections: 2, Predicates: 0, Seed: 3})
	for _, q := range noPred {
		if q.ChildOfKind(ast.KindWhere) != nil {
			t.Error("Predicates=0 must not emit WHERE")
		}
	}
}

func TestNamed(t *testing.T) {
	for _, name := range Names() {
		qs, err := Named(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(qs) == 0 {
			t.Fatalf("%s: empty log", name)
		}
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// The named logs parse to the AST logs the experiments use.
	for name, want := range map[string][]*ast.Node{
		"figure1":         PaperFigure1Log(),
		"sdss-subset":     SDSSSubset(6, 8),
		"sdss-join-block": SDSSJoinSubset(1, 6),
	} {
		qs, _ := Named(name)
		if len(qs) != len(want) {
			t.Fatalf("%s: %d queries, want %d", name, len(qs), len(want))
		}
		for i, q := range qs {
			if !ast.Equal(sqlparser.MustParse(q), want[i]) {
				t.Errorf("%s[%d] = %q does not parse to %q", name, i, q, sqlparser.Render(want[i]))
			}
		}
	}
}
