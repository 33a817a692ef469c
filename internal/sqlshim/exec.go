package sqlshim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// DB is an in-memory SQL database over xdm values.
type DB struct {
	mu     sync.Mutex
	tables map[string]*Table
}

// Table is one stored relation.
type Table struct {
	Name  string
	Cols  []string
	Types []string
	PK    []string
	Rows  [][]xdm.Value
}

// Result is the outcome of a statement; Cols/Rows are nil for DDL/DML.
type Result struct {
	Cols []string
	Rows [][]xdm.Value
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// Exec parses and executes one statement with optional ? parameters.
func (db *DB) Exec(sqlText string, args ...xdm.Value) (*Result, error) {
	st, err := parseStmt(sqlText)
	if err != nil {
		return nil, fmt.Errorf("%w\nin SQL:\n%s", err, sqlText)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	res, err := db.execStmt(st, args)
	if err != nil {
		return nil, fmt.Errorf("%w\nin SQL:\n%s", err, sqlText)
	}
	return res, nil
}

func (db *DB) execStmt(st Stmt, args []xdm.Value) (*Result, error) {
	switch s := st.(type) {
	case *CreateTable:
		key := strings.ToLower(s.Name)
		if _, ok := db.tables[key]; ok {
			return nil, fmt.Errorf("sqlshim: table %s already exists", s.Name)
		}
		t := &Table{Name: s.Name, PK: s.PK}
		for _, c := range s.Cols {
			t.Cols = append(t.Cols, c.Name)
			t.Types = append(t.Types, c.Type)
		}
		db.tables[key] = t
		return &Result{}, nil
	case *DropTable:
		key := strings.ToLower(s.Name)
		if _, ok := db.tables[key]; !ok {
			if s.IfExists {
				return &Result{}, nil
			}
			return nil, fmt.Errorf("sqlshim: no such table %s", s.Name)
		}
		delete(db.tables, key)
		return &Result{}, nil
	case *Insert:
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return nil, fmt.Errorf("sqlshim: no such table %s", s.Table)
		}
		ctx := &qctx{db: db, args: args, ctes: map[string]*Result{}}
		env := &env{ctx: ctx, sc: &scope{}}
		for _, rowExprs := range s.Rows {
			vals := make([]xdm.Value, len(rowExprs))
			for i, e := range rowExprs {
				v, err := evalExpr(env, e)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			row := vals
			if len(s.Cols) > 0 {
				if len(vals) != len(s.Cols) {
					return nil, fmt.Errorf("sqlshim: %d values for %d columns", len(vals), len(s.Cols))
				}
				row = make([]xdm.Value, len(t.Cols))
				for i, cn := range s.Cols {
					idx := colIndex(t.Cols, cn)
					if idx < 0 {
						return nil, fmt.Errorf("sqlshim: no column %s in %s", cn, t.Name)
					}
					row[idx] = vals[i]
				}
			} else if len(vals) != len(t.Cols) {
				return nil, fmt.Errorf("sqlshim: %d values for %d columns of %s", len(vals), len(t.Cols), t.Name)
			}
			t.Rows = append(t.Rows, row)
		}
		return &Result{}, nil
	case *Delete:
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return nil, fmt.Errorf("sqlshim: no such table %s", s.Table)
		}
		if s.Where == nil {
			t.Rows = nil
			return &Result{}, nil
		}
		ctx := &qctx{db: db, args: args, ctes: map[string]*Result{}}
		b := &bind{alias: strings.ToLower(t.Name), cols: lowerAll(t.Cols)}
		sc := &scope{binds: []*bind{b}}
		env := &env{ctx: ctx, sc: sc}
		var kept [][]xdm.Value
		for _, r := range t.Rows {
			b.row = r
			v, err := evalExpr(env, s.Where)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.EffectiveBool() {
				kept = append(kept, r)
			}
		}
		t.Rows = kept
		return &Result{}, nil
	case *ExplainStmt:
		lines, err := db.explainQuery(s.Query)
		if err != nil {
			return nil, err
		}
		res := &Result{Cols: []string{"detail"}}
		for _, l := range lines {
			res.Rows = append(res.Rows, []xdm.Value{xdm.Str(l)})
		}
		return res, nil
	case *Query:
		ctx := &qctx{db: db, args: args, ctes: map[string]*Result{}}
		return runQuery(ctx, s, &scope{})
	default:
		return nil, fmt.Errorf("sqlshim: unsupported statement %T", st)
	}
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}

// --- query execution ---

// qctx is per-statement execution state.
type qctx struct {
	db   *DB
	args []xdm.Value
	ctes map[string]*Result
}

// scope is a chain of visible row bindings (inner scopes first), enabling
// correlated subqueries and path-step ITEM binding.
type scope struct {
	parent *scope
	binds  []*bind
}

type bind struct {
	alias string // lowercase; "" for unnamed sources
	cols  []string
	row   []xdm.Value
}

func (s *scope) resolve(qual, name string) (xdm.Value, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	for sc := s; sc != nil; sc = sc.parent {
		if qual != "" {
			for _, b := range sc.binds {
				if b.alias == qual {
					for i, c := range b.cols {
						if c == name {
							return b.row[i], nil
						}
					}
					return xdm.Null, fmt.Errorf("sqlshim: no column %s.%s", qual, name)
				}
			}
			continue
		}
		found := false
		var v xdm.Value
		for _, b := range sc.binds {
			for i, c := range b.cols {
				if c == name {
					if found {
						return xdm.Null, fmt.Errorf("sqlshim: ambiguous column %s", name)
					}
					found = true
					v = b.row[i]
				}
			}
		}
		if found {
			return v, nil
		}
	}
	return xdm.Null, fmt.Errorf("sqlshim: no such column %s", name)
}

func runQuery(ctx *qctx, q *Query, parent *scope) (*Result, error) {
	for _, c := range q.With {
		res, err := runCompound(ctx, c.Body, parent)
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", c.Name, err)
		}
		if len(c.Cols) > 0 {
			if len(c.Cols) != len(res.Cols) {
				return nil, fmt.Errorf("sqlshim: CTE %s lists %d columns, body yields %d", c.Name, len(c.Cols), len(res.Cols))
			}
			res = &Result{Cols: c.Cols, Rows: res.Rows}
		}
		ctx.ctes[strings.ToLower(c.Name)] = res
	}
	return runCompound(ctx, q.Body, parent)
}

func runCompound(ctx *qctx, c *Compound, parent *scope) (*Result, error) {
	res, err := runOperand(ctx, c.First, parent)
	if err != nil {
		return nil, err
	}
	for _, t := range c.Rest {
		r2, err := runOperand(ctx, t.Operand, parent)
		if err != nil {
			return nil, err
		}
		if len(r2.Cols) != len(res.Cols) {
			return nil, fmt.Errorf("sqlshim: set operation width mismatch (%d vs %d)", len(res.Cols), len(r2.Cols))
		}
		switch t.Op {
		case "union all":
			res = &Result{Cols: res.Cols, Rows: append(append([][]xdm.Value{}, res.Rows...), r2.Rows...)}
		case "union":
			seen := map[string]bool{}
			var rows [][]xdm.Value
			for _, r := range append(append([][]xdm.Value{}, res.Rows...), r2.Rows...) {
				k := xdm.TupleKey(r)
				if seen[k] {
					continue
				}
				seen[k] = true
				rows = append(rows, r)
			}
			res = &Result{Cols: res.Cols, Rows: rows}
		case "except", "intersect":
			right := map[string]bool{}
			for _, r := range r2.Rows {
				right[xdm.TupleKey(r)] = true
			}
			seen := map[string]bool{}
			var rows [][]xdm.Value
			for _, r := range res.Rows {
				k := xdm.TupleKey(r)
				if seen[k] {
					continue
				}
				seen[k] = true
				if right[k] == (t.Op == "intersect") {
					rows = append(rows, r)
				}
			}
			res = &Result{Cols: res.Cols, Rows: rows}
		}
	}
	return res, nil
}

func runOperand(ctx *qctx, o Operand, parent *scope) (*Result, error) {
	switch x := o.(type) {
	case *SelectCore:
		return runSelect(ctx, x, parent)
	case *ValuesCore:
		env := &env{ctx: ctx, sc: parent}
		var rows [][]xdm.Value
		width := -1
		for _, re := range x.Rows {
			row := make([]xdm.Value, len(re))
			for i, e := range re {
				v, err := evalExpr(env, e)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			if width < 0 {
				width = len(row)
			} else if len(row) != width {
				return nil, fmt.Errorf("sqlshim: VALUES rows differ in width")
			}
			rows = append(rows, row)
		}
		cols := make([]string, width)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i+1)
		}
		return &Result{Cols: cols, Rows: rows}, nil
	case *Compound:
		return runCompound(ctx, x, parent)
	default:
		return nil, fmt.Errorf("sqlshim: unknown operand %T", o)
	}
}

// source is one materialized FROM relation.
type source struct {
	display string
	alias   string
	cols    []string
	rows    [][]xdm.Value
}

func (ctx *qctx) materialize(fi *FromItem, parent *scope) (*source, error) {
	if fi.Sub != nil {
		res, err := runCompound(ctx, fi.Sub, parent)
		if err != nil {
			return nil, err
		}
		return &source{display: "(subquery)", alias: strings.ToLower(fi.Alias), cols: lowerAll(res.Cols), rows: res.Rows}, nil
	}
	key := strings.ToLower(fi.Table)
	alias := strings.ToLower(fi.Alias)
	if alias == "" {
		alias = key
	}
	if cte, ok := ctx.ctes[key]; ok {
		return &source{display: fi.Table, alias: alias, cols: lowerAll(cte.Cols), rows: cte.Rows}, nil
	}
	if t, ok := ctx.db.tables[key]; ok {
		return &source{display: fi.Table, alias: alias, cols: lowerAll(t.Cols), rows: t.Rows}, nil
	}
	return nil, fmt.Errorf("sqlshim: no such table %s", fi.Table)
}

// joinStrategy is the statically chosen execution for one join step; it is
// shared with EXPLAIN QUERY PLAN so plan shape is data-independent.
type joinStrategy struct {
	equi     []equiPair
	residual []Expr
}

type equiPair struct {
	left     *ColE // probe-side column (qualified)
	rightCol string
}

func planJoin(on Expr, leftAliases map[string]bool, rightAlias string, rightCols []string) joinStrategy {
	var st joinStrategy
	for _, conj := range flattenAnd(on) {
		if eq, ok := conj.(*BinaryE); ok && eq.Op == "=" {
			l, lok := eq.L.(*ColE)
			r, rok := eq.R.(*ColE)
			if lok && rok && l.Qual != "" && r.Qual != "" {
				lq, rq := strings.ToLower(l.Qual), strings.ToLower(r.Qual)
				if leftAliases[lq] && rq == rightAlias && colIndex(rightCols, r.Name) >= 0 {
					st.equi = append(st.equi, equiPair{left: l, rightCol: r.Name})
					continue
				}
				if leftAliases[rq] && lq == rightAlias && colIndex(rightCols, l.Name) >= 0 {
					st.equi = append(st.equi, equiPair{left: r, rightCol: l.Name})
					continue
				}
			}
		}
		st.residual = append(st.residual, conj)
	}
	return st
}

func flattenAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*LogicE); ok && l.Op == "and" {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, flattenAnd(a)...)
		}
		return out
	}
	return []Expr{e}
}

func runSelect(ctx *qctx, sc *SelectCore, parent *scope) (*Result, error) {
	// Materialize sources and fold joins left to right.
	var sources []*source
	for i := range sc.From {
		s, err := ctx.materialize(&sc.From[i], parent)
		if err != nil {
			return nil, err
		}
		sources = append(sources, s)
	}

	binds := make([]*bind, len(sources))
	for i, s := range sources {
		binds[i] = &bind{alias: s.alias, cols: s.cols}
	}
	rowScope := &scope{parent: parent, binds: binds}
	renv := &env{ctx: ctx, sc: rowScope}

	// A joined row holds one row slice per source; padded (outer-join) rows
	// are allocated as all-null slices so resolution never sees nil.
	type jrow = [][]xdm.Value
	var current []jrow
	if len(sources) == 0 {
		current = []jrow{{}}
	} else {
		for _, r := range sources[0].rows {
			current = append(current, jrow{r})
		}
	}

	setRow := func(jr jrow) {
		for i := range jr {
			binds[i].row = jr[i]
		}
		for i := len(jr); i < len(binds); i++ {
			binds[i].row = make([]xdm.Value, len(sources[i].cols))
		}
	}

	for k := 1; k < len(sources); k++ {
		fi := &sc.From[k]
		right := sources[k]
		leftAliases := map[string]bool{}
		for i := 0; i < k; i++ {
			if sources[i].alias != "" {
				leftAliases[sources[i].alias] = true
			}
		}
		st := planJoin(fi.On, leftAliases, right.alias, right.cols)

		evalResidual := func() (bool, error) {
			for _, e := range st.residual {
				v, err := evalExpr(renv, e)
				if err != nil {
					return false, err
				}
				if v.IsNull() || !v.EffectiveBool() {
					return false, nil
				}
			}
			return true, nil
		}

		var next []jrow
		if len(st.equi) > 0 {
			// Hash join; NULL join keys never match (evaluator semantics).
			rightIdx := make([]int, len(st.equi))
			for i, ep := range st.equi {
				rightIdx[i] = colIndex(right.cols, ep.rightCol)
			}
			buckets := make(map[string][]int, len(right.rows))
			for ri, rr := range right.rows {
				keys := make([]xdm.Value, len(rightIdx))
				null := false
				for i, ci := range rightIdx {
					if rr[ci].IsNull() {
						null = true
						break
					}
					keys[i] = rr[ci]
				}
				if null {
					continue
				}
				k := xdm.TupleKey(keys)
				buckets[k] = append(buckets[k], ri)
			}
			for _, jr := range current {
				setRow(jr)
				probe := make([]xdm.Value, len(st.equi))
				null := false
				for i, ep := range st.equi {
					v, err := rowScope.resolve(ep.left.Qual, ep.left.Name)
					if err != nil {
						return nil, err
					}
					if v.IsNull() {
						null = true
						break
					}
					probe[i] = v
				}
				matched := false
				if !null {
					for _, ri := range buckets[xdm.TupleKey(probe)] {
						njr := append(append(jrow{}, jr...), right.rows[ri])
						setRow(njr)
						ok, err := evalResidual()
						if err != nil {
							return nil, err
						}
						if ok {
							matched = true
							next = append(next, njr)
						}
					}
				}
				if !matched && fi.Join == "left" {
					pad := make([]xdm.Value, len(right.cols))
					next = append(next, append(append(jrow{}, jr...), pad))
				}
			}
		} else {
			conds := flattenAnd(fi.On)
			for _, jr := range current {
				matched := false
				for _, rr := range right.rows {
					njr := append(append(jrow{}, jr...), rr)
					setRow(njr)
					ok := true
					for _, e := range conds {
						v, err := evalExpr(renv, e)
						if err != nil {
							return nil, err
						}
						if v.IsNull() || !v.EffectiveBool() {
							ok = false
							break
						}
					}
					if ok {
						matched = true
						next = append(next, njr)
					}
				}
				if !matched && fi.Join == "left" {
					pad := make([]xdm.Value, len(right.cols))
					next = append(next, append(append(jrow{}, jr...), pad))
				}
			}
		}
		current = next
	}

	// WHERE filter.
	if sc.Where != nil {
		var kept []jrow
		for _, jr := range current {
			setRow(jr)
			v, err := evalExpr(renv, sc.Where)
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && v.EffectiveBool() {
				kept = append(kept, jr)
			}
		}
		current = kept
	}

	// Window functions (ROW_NUMBER), numbered in arrival order per partition.
	var windows []*WindowE
	for _, it := range sc.Items {
		windows = append(windows, collectWindows(it.E)...)
	}
	winVals := map[*WindowE][]xdm.Value{}
	for _, w := range windows {
		vals := make([]xdm.Value, len(current))
		counts := map[string]int64{}
		for i, jr := range current {
			setRow(jr)
			keys := make([]xdm.Value, len(w.PartitionBy))
			for j, e := range w.PartitionBy {
				v, err := evalExpr(renv, e)
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			k := xdm.TupleKey(keys)
			counts[k]++
			vals[i] = xdm.Int(counts[k])
		}
		winVals[w] = vals
	}

	// Output column names.
	outCols := outputCols(sc, sources)

	hasAgg := len(sc.GroupBy) > 0
	if !hasAgg {
		for _, it := range sc.Items {
			if len(collectAggs(it.E)) > 0 {
				hasAgg = true
				break
			}
		}
	}

	var rows [][]xdm.Value
	if hasAgg {
		var err error
		rows, err = runAggregate(ctx, sc, sources, binds, rowScope, current, setRowFn(setRow))
		if err != nil {
			return nil, err
		}
	} else {
		for i, jr := range current {
			setRow(jr)
			env := &env{ctx: ctx, sc: rowScope, win: map[*WindowE]xdm.Value{}}
			for w, vals := range winVals {
				env.win[w] = vals[i]
			}
			row, err := evalItems(env, sc.Items, binds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}

	// ORDER BY on output columns.
	if len(sc.OrderBy) > 0 {
		type ospec struct {
			idx  int
			desc bool
		}
		specs := make([]ospec, len(sc.OrderBy))
		for i, o := range sc.OrderBy {
			c, ok := o.E.(*ColE)
			if !ok || c.Qual != "" {
				return nil, fmt.Errorf("sqlshim: ORDER BY supports output column names only")
			}
			idx := colIndex(outCols, c.Name)
			if idx < 0 {
				return nil, fmt.Errorf("sqlshim: ORDER BY column %s not in output", c.Name)
			}
			specs[i] = ospec{idx: idx, desc: o.Desc}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for _, s := range specs {
				r := xdm.Compare(rows[a][s.idx], rows[b][s.idx])
				if s.desc {
					r = -r
				}
				if r != 0 {
					return r < 0
				}
			}
			return false
		})
	}

	return &Result{Cols: outCols, Rows: rows}, nil
}

type setRowFn func(jr [][]xdm.Value)

// outputCols derives output column names from the select items.
func outputCols(sc *SelectCore, sources []*source) []string {
	var cols []string
	for i, it := range sc.Items {
		if it.Star {
			for _, s := range sources {
				cols = append(cols, s.cols...)
			}
			continue
		}
		switch {
		case it.As != "":
			cols = append(cols, it.As)
		default:
			if c, ok := it.E.(*ColE); ok {
				cols = append(cols, c.Name)
			} else {
				cols = append(cols, fmt.Sprintf("c%d", i+1))
			}
		}
	}
	return cols
}

// evalItems evaluates the select list for the current row binding.
func evalItems(env *env, items []SelectItem, binds []*bind) ([]xdm.Value, error) {
	var row []xdm.Value
	for _, it := range items {
		if it.Star {
			for _, b := range binds {
				row = append(row, b.row...)
			}
			continue
		}
		v, err := evalExpr(env, it.E)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// runAggregate groups the joined rows and evaluates aggregate select items,
// mirroring xqgm.evalGroupBy: groups ordered by key string; a global
// aggregate over empty input yields one row, a grouped one yields none.
func runAggregate(ctx *qctx, sc *SelectCore, sources []*source, binds []*bind, rowScope *scope, current [][][]xdm.Value, setRow setRowFn) ([][]xdm.Value, error) {
	renv := &env{ctx: ctx, sc: rowScope}
	type group struct {
		rows [][][]xdm.Value
	}
	groups := map[string]*group{}
	var order []string
	for _, jr := range current {
		setRow(jr)
		keys := make([]xdm.Value, len(sc.GroupBy))
		for i, e := range sc.GroupBy {
			v, err := evalExpr(renv, e)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		k := xdm.TupleKey(keys)
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, jr)
	}
	if len(sc.GroupBy) == 0 && len(order) == 0 {
		k := xdm.TupleKey(nil)
		groups[k] = &group{}
		order = append(order, k)
	}
	sort.Strings(order)

	var aggs []*CallE
	for _, it := range sc.Items {
		aggs = append(aggs, collectAggs(it.E)...)
	}

	var out [][]xdm.Value
	for _, k := range order {
		g := groups[k]
		aggVals := map[*CallE]xdm.Value{}
		for _, a := range aggs {
			v, err := evalAggCall(ctx, rowScope, setRow, a, g.rows)
			if err != nil {
				return nil, err
			}
			aggVals[a] = v
		}
		// Non-aggregate parts of the select list (group columns) are
		// constant within a group; bind the first row, or an all-null row
		// for the empty global group.
		if len(g.rows) > 0 {
			setRow(g.rows[0])
		} else {
			setRow(nil)
		}
		env := &env{ctx: ctx, sc: rowScope, agg: aggVals}
		row, err := evalItems(env, sc.Items, binds)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func collectWindows(e Expr) []*WindowE {
	var out []*WindowE
	walkExpr(e, func(x Expr) bool {
		if w, ok := x.(*WindowE); ok {
			out = append(out, w)
		}
		return true
	})
	return out
}

func collectAggs(e Expr) []*CallE {
	var out []*CallE
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*CallE); ok && isAggName(c.Name) {
			out = append(out, c)
			return false // don't descend into aggregate args
		}
		return true
	})
	return out
}

func isAggName(name string) bool {
	_, ok := xqgm.AggFuncByName(name)
	return ok
}

// walkExpr visits e and (when fn returns true) its children. Subqueries are
// not descended into: their aggregates/windows belong to the inner select.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil {
		return
	}
	if !fn(e) {
		return
	}
	switch x := e.(type) {
	case *UnaryE:
		walkExpr(x.E, fn)
	case *BinaryE:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *LogicE:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *IsNullE:
		walkExpr(x.E, fn)
	case *CallE:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
		for _, o := range x.OrderBy {
			walkExpr(o.E, fn)
		}
	case *WindowE:
		for _, a := range x.PartitionBy {
			walkExpr(a, fn)
		}
	}
}
