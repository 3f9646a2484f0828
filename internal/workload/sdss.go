// Package workload provides the paper's evaluation inputs: the Sloan
// Digital Sky Survey query log of Listing 1 and a parameterized synthetic
// log generator for scaling and ablation experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// sdssWhere is the WHERE clause shared by the SDSS queries. The paper prints
// queries 1–2 in full and notes "All queries have the same WHERE clause
// structure"; we reuse query 1's literals for queries 3–10 (so, as the paper
// observes for Figure 6(c), queries 6–8 have identical WHERE clauses).
const sdssWhere = "u between 0 and 30 and g between 0 and 30 and r between 0 and 30 and i between 0 and 30"

// sdssWhere2 is query 2's distinct literal pattern, printed in Listing 1.
const sdssWhere2 = "u between 1 and 29 and g between 10 and 30 and r between 9 and 30 and i between 3 and 28"

// SDSSLogSQL returns the ten queries of the paper's Listing 1 as SQL text.
func SDSSLogSQL() []string {
	return []string{
		"select top 10 objid from stars where " + sdssWhere,
		"select top 100 objid from galaxies where " + sdssWhere2,
		"select top 1000 objid from quasars where " + sdssWhere,
		"select count(*) from stars where " + sdssWhere,
		"select objid from galaxies where " + sdssWhere,
		"select top 10 objid from quasars where " + sdssWhere,
		"select top 100 objid from stars where " + sdssWhere,
		"select top 1000 objid from galaxies where " + sdssWhere,
		"select count(*) from quasars where " + sdssWhere,
		"select objid from stars where " + sdssWhere,
	}
}

// SDSSLog parses Listing 1 into ASTs.
func SDSSLog() []*ast.Node {
	srcs := SDSSLogSQL()
	out := make([]*ast.Node, len(srcs))
	for i, s := range srcs {
		out[i] = sqlparser.MustParse(s)
	}
	return out
}

// SDSSSubset returns queries lo..hi (1-based, inclusive) of Listing 1;
// Figure 6(c) uses queries 6–8.
func SDSSSubset(lo, hi int) []*ast.Node {
	all := SDSSLog()
	if lo < 1 {
		lo = 1
	}
	if hi > len(all) {
		hi = len(all)
	}
	if lo > hi {
		return nil
	}
	return all[lo-1 : hi]
}

// paperFigure1SQL returns the three queries of the paper's Figure 1.
func paperFigure1SQL() []string {
	return []string{
		"SELECT Sales FROM sales WHERE cty = USA",
		"SELECT Costs FROM sales WHERE cty = EUR",
		"SELECT Costs FROM sales",
	}
}

// PaperFigure1Log returns the three-query log of the paper's Figure 1.
func PaperFigure1Log() []*ast.Node {
	return mustParseAll(paperFigure1SQL()...)
}

// named is the one table of built-in workload names, in help-text order.
var named = []struct {
	name string
	sql  func() []string
}{
	{"sdss", SDSSLogSQL},
	{"sdss-subset", func() []string { return SDSSLogSQL()[5:8] }}, // Figure 6(c): queries 6-8
	{"sdss-join", SDSSJoinLogSQL},
	{"sdss-join-block", func() []string { return SDSSJoinLogSQL()[:6] }},
	{"figure1", paperFigure1SQL},
}

// Names lists the workload names Named resolves.
func Names() []string {
	out := make([]string, len(named))
	for i, w := range named {
		out[i] = w.name
	}
	return out
}

// Named returns the SQL query log of a built-in workload.
func Named(name string) ([]string, error) {
	for _, w := range named {
		if w.name == name {
			return w.sql(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names(), ", "))
}

func mustParseAll(srcs ...string) []*ast.Node {
	out := make([]*ast.Node, len(srcs))
	for i, s := range srcs {
		out[i] = sqlparser.MustParse(s)
	}
	return out
}

// GenConfig parameterizes the synthetic log generator.
type GenConfig struct {
	Queries     int   // number of queries in the log
	Tables      int   // distinct tables drawn from
	Projections int   // distinct projection attributes
	TopValues   int   // distinct TOP row counts (0 disables TOP)
	Predicates  int   // BETWEEN conjuncts per query
	PredColumns int   // distinct predicate columns
	LiteralVars int   // distinct literal patterns per predicate column
	OptWhere    bool  // some queries drop the WHERE clause entirely
	Seed        int64 // determinism

	// Multi-table knobs; all zero values reproduce the single-table
	// generator bit-for-bit (no extra rng draws are made).
	JoinTables    int  // distinct join-partner tables; > 0 adds a join step to most queries
	LeftJoins     bool // mix LEFT JOIN into the join steps
	UnionBranches int  // > 1: some queries become UNION chains of up to this many branches
	Subqueries    bool // some WHERE clauses gain an IN (SELECT ...) conjunct
}

// DefaultGenConfig mirrors the SDSS log's scale.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Queries:     10,
		Tables:      3,
		Projections: 2,
		TopValues:   3,
		Predicates:  4,
		PredColumns: 4,
		LiteralVars: 1,
		OptWhere:    false,
		Seed:        1,
	}
}

// Generate produces a deterministic synthetic query log in the SDSS style:
// SELECT [TOP n] attr FROM table WHERE col BETWEEN lo AND hi AND ..., with
// the multi-table knobs adding join steps, IN-subquery conjuncts, and UNION
// chains on top of the same core shape.
func Generate(cfg GenConfig) []*ast.Node {
	if cfg.Queries <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tables := nameList("t", max(1, cfg.Tables))
	projs := nameList("attr", max(1, cfg.Projections))
	cols := nameList("c", max(1, cfg.PredColumns))
	joins := nameList("j", cfg.JoinTables)

	genSelect := func(b *strings.Builder) {
		b.WriteString("select ")
		if cfg.TopValues > 0 && rng.Intn(4) != 0 {
			b.WriteString(fmt.Sprintf("top %d ", int(math.Pow10(1+rng.Intn(cfg.TopValues)))))
		}
		if rng.Intn(5) == 0 {
			b.WriteString("count(*)")
		} else {
			b.WriteString(projs[rng.Intn(len(projs))])
		}
		b.WriteString(" from ")
		b.WriteString(tables[rng.Intn(len(tables))])
		if len(joins) > 0 && rng.Intn(4) != 0 {
			kind := "inner"
			if cfg.LeftJoins && rng.Intn(3) == 0 {
				kind = "left"
			}
			fmt.Fprintf(b, " %s join %s on %s = %s", kind, joins[rng.Intn(len(joins))], cols[0], cols[0])
		}
		if cfg.Predicates > 0 && (!cfg.OptWhere || rng.Intn(3) != 0) {
			b.WriteString(" where ")
			for p := 0; p < cfg.Predicates; p++ {
				if p > 0 {
					b.WriteString(" and ")
				}
				col := cols[(p+rng.Intn(max(1, cfg.PredColumns)))%len(cols)]
				variant := rng.Intn(max(1, cfg.LiteralVars))
				lo := variant
				hi := 30 - variant
				fmt.Fprintf(b, "%s between %d and %d", col, lo, hi)
			}
			if cfg.Subqueries && rng.Intn(3) == 0 {
				fmt.Fprintf(b, " and %s in (select %s from %s where %s between 0 and 30)",
					cols[0], cols[0], tables[rng.Intn(len(tables))], cols[len(cols)-1])
			}
		}
	}

	var out []*ast.Node
	for i := 0; i < cfg.Queries; i++ {
		var b strings.Builder
		genSelect(&b)
		if cfg.UnionBranches > 1 && rng.Intn(3) == 0 {
			for n := 1 + rng.Intn(cfg.UnionBranches-1); n > 0; n-- {
				b.WriteString(" union ")
				genSelect(&b)
			}
		}
		out = append(out, sqlparser.MustParse(b.String()))
	}
	return out
}

func nameList(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}
