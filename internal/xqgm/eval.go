package xqgm

import (
	"fmt"
	"sort"

	"quark/internal/reldb"
	"quark/internal/xdm"
)

// Tuple is one output row of an operator.
type Tuple []xdm.Value

// Transition carries a statement's transition tables for one base table
// (Δtable = Inserted, ∇table = Deleted).
type Transition struct {
	Inserted []reldb.Row
	Deleted  []reldb.Row
}

// EvalStats counts evaluator work for benchmarks and plan-shape tests.
type EvalStats struct {
	OpsEvaluated   int
	RowsProduced   int
	IndexNLJoins   int
	HashJoins      int
	NestedLoopJoin int
}

// EvalContext supplies the data environment for evaluating a graph: the
// database, the firing statement's transition tables, and result
// memoization so shared DAG nodes are computed once.
type EvalContext struct {
	DB     *reldb.DB
	Deltas map[string]*Transition
	Stats  EvalStats

	memo map[*Operator][]Tuple
	// oldExcl caches, per table, the Δ primary-key set used to mask
	// current rows when probing B_old; delIdx caches ∇ rows bucketed by a
	// probe column. Both depend only on the (fixed) transition tables, and
	// without them every SrcOld index probe would rescan Δ and ∇ — O(|Δ|)
	// per probe, quadratic over a large batched transaction.
	oldExcl map[string]map[string]bool
	delIdx  map[tableCol]map[string][]reldb.Row
}

// tableCol keys the ∇-row cache without per-probe string formatting.
type tableCol struct {
	table string
	col   int
}

// NewEvalContext builds an evaluation context over db. deltas may be nil
// for pure view evaluation.
func NewEvalContext(db *reldb.DB, deltas map[string]*Transition) *EvalContext {
	return &EvalContext{DB: db, Deltas: deltas, memo: map[*Operator][]Tuple{}}
}

// Eval evaluates the graph rooted at o and returns its output tuples.
// Results for shared operators are memoized within this context.
func (ctx *EvalContext) Eval(o *Operator) ([]Tuple, error) {
	if res, ok := ctx.memo[o]; ok {
		return res, nil
	}
	res, err := ctx.eval(o)
	if err != nil {
		return nil, err
	}
	ctx.memo[o] = res
	ctx.Stats.OpsEvaluated++
	ctx.Stats.RowsProduced += len(res)
	return res, nil
}

func (ctx *EvalContext) eval(o *Operator) ([]Tuple, error) {
	switch o.Type {
	case OpTable:
		return ctx.evalTable(o)
	case OpConstants:
		if o.constRows != nil {
			return o.constRows, nil
		}
		out := make([]Tuple, 0, len(o.ConstRows))
		for _, row := range o.ConstRows {
			t := make(Tuple, len(row))
			for i, e := range row {
				v, err := e.Eval(&Env{})
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			out = append(out, t)
		}
		o.constRows = out
		return out, nil
	case OpSelect:
		in, err := ctx.Eval(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		var out []Tuple
		for _, t := range in {
			v, err := o.Pred.Eval(unaryEnv(t))
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && v.EffectiveBool() {
				out = append(out, t)
			}
		}
		return out, nil
	case OpProject:
		in, err := ctx.Eval(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		out := make([]Tuple, 0, len(in))
		for _, t := range in {
			env := unaryEnv(t)
			nt := make(Tuple, len(o.Projs))
			for i, p := range o.Projs {
				v, err := p.E.Eval(env)
				if err != nil {
					return nil, err
				}
				nt[i] = v
			}
			out = append(out, nt)
		}
		return out, nil
	case OpJoin:
		return ctx.evalJoin(o)
	case OpGroupBy:
		return ctx.evalGroupBy(o)
	case OpUnion:
		return ctx.evalUnion(o)
	case OpOrderBy:
		in, err := ctx.Eval(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		out := append([]Tuple(nil), in...)
		sort.SliceStable(out, func(i, j int) bool {
			for _, oc := range o.OrderCols {
				c := xdm.Compare(out[i][oc.Col], out[j][oc.Col])
				if oc.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		return out, nil
	case OpUnnest:
		in, err := ctx.Eval(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		var out []Tuple
		for _, t := range in {
			for _, item := range t[o.UnnestCol].AsSeq() {
				nt := append(Tuple(nil), t...)
				nt[o.UnnestCol] = item
				out = append(out, nt)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xqgm: cannot evaluate operator %s", o.Type)
	}
}

func rowsToTuples(rows []reldb.Row) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = Tuple(r)
	}
	return out
}

func (ctx *EvalContext) transition(table string) *Transition {
	if ctx.Deltas == nil {
		return &Transition{}
	}
	tr, ok := ctx.Deltas[table]
	if !ok {
		return &Transition{}
	}
	return tr
}

func (ctx *EvalContext) evalTable(o *Operator) ([]Tuple, error) {
	tr := ctx.transition(o.Table)
	switch o.Source {
	case SrcBase:
		out := make([]Tuple, 0, ctx.DB.RowCount(o.Table))
		err := ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			out = append(out, Tuple(r))
			return true
		})
		return out, err
	case SrcDelta:
		return rowsToTuples(tr.Inserted), nil
	case SrcNabla:
		return rowsToTuples(tr.Deleted), nil
	case SrcDeltaPruned:
		return rowsToTuples(pruneRows(tr.Inserted, tr.Deleted)), nil
	case SrcNablaPruned:
		return rowsToTuples(pruneRows(tr.Deleted, tr.Inserted)), nil
	case SrcOld:
		return ctx.evalOldTable(o, tr)
	default:
		return nil, fmt.Errorf("xqgm: unknown table source %d", o.Source)
	}
}

// pruneRows implements the pruned transition tables of Definition 8:
// rows of a that also appear (as full rows) in b are removed.
func pruneRows(a, b []reldb.Row) []reldb.Row {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	drop := make(map[string]int, len(b))
	for _, r := range b {
		drop[xdm.TupleKey(r)]++
	}
	var out []reldb.Row
	for _, r := range a {
		k := xdm.TupleKey(r)
		if n := drop[k]; n > 0 {
			drop[k] = n - 1
			continue
		}
		out = append(out, r)
	}
	return out
}

// evalOldTable reconstructs B_old = (B EXCEPT ALL ΔB) UNION ALL ∇B (paper
// §4.2). B_old is a bag expression: with a primary key, Δ keys are unique in
// the table so a key set is exact; without one the table may hold duplicate
// rows and Δ must be subtracted with multiplicity, not as a set.
func (ctx *EvalContext) evalOldTable(o *Operator, tr *Transition) ([]Tuple, error) {
	var out []Tuple
	var err error
	if len(o.TablePK) > 0 {
		exclude := ctx.oldExclFor(o.Table, o.TablePK)
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			if len(exclude) > 0 && exclude[pkKeyOf(r, o.TablePK)] {
				return true
			}
			out = append(out, Tuple(r))
			return true
		})
	} else {
		remain := make(map[string]int, len(tr.Inserted))
		for _, r := range tr.Inserted {
			remain[xdm.TupleKey(r)]++
		}
		err = ctx.DB.Scan(o.Table, func(r reldb.Row) bool {
			k := xdm.TupleKey(r)
			if n := remain[k]; n > 0 {
				remain[k] = n - 1
				return true
			}
			out = append(out, Tuple(r))
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Deleted {
		out = append(out, Tuple(r))
	}
	return out, nil
}

// --- joins ---

// basePath describes an input subtree that reads a single base table,
// optionally through a Select and/or a column-preserving Project, so joins
// against it can use reldb's hash indexes.
type basePath struct {
	table    string
	src      TableSource
	residual Expr  // predicate over the base row, or nil
	colMap   []int // output column -> base column (identity when proj == nil)
	names    []string
	pk       []int // base primary-key column indexes (for SrcOld probing)
}

func matchBasePath(o *Operator) *basePath {
	switch o.Type {
	case OpTable:
		// Base tables probe the index directly; B_old is probed as the
		// current table minus Δ-keyed rows plus matching ∇ rows.
		if o.Source != SrcBase && o.Source != SrcOld {
			return nil
		}
		// The indexed B_old probe masks Δ rows with a key set; without a
		// primary key the subtraction needs bag multiplicity, so fall back
		// to evalOldTable's full scan.
		if o.Source == SrcOld && len(o.TablePK) == 0 {
			return nil
		}
		cm := make([]int, o.Width)
		for i := range cm {
			cm[i] = i
		}
		return &basePath{table: o.Table, src: o.Source, colMap: cm, names: o.Names, pk: o.TablePK}
	case OpSelect:
		bp := matchBasePath(o.Inputs[0])
		if bp == nil {
			return nil
		}
		// The select's predicate references its input's columns; remap to
		// base columns.
		m := map[int]int{}
		for out, base := range bp.colMap {
			m[out] = base
		}
		pred := SubstituteCols(o.Pred, m)
		bp2 := *bp
		bp2.residual = And(bp.residual, pred)
		return &bp2
	case OpProject:
		bp := matchBasePath(o.Inputs[0])
		if bp == nil {
			return nil
		}
		cm := make([]int, len(o.Projs))
		for i, p := range o.Projs {
			cr, ok := p.E.(*ColRef)
			if !ok || cr.Input != 0 {
				return nil
			}
			cm[i] = bp.colMap[cr.Col]
		}
		return &basePath{table: bp.table, src: bp.src, residual: bp.residual, colMap: cm, names: o.OutNames(), pk: bp.pk}
	default:
		return nil
	}
}

func (ctx *EvalContext) evalJoin(o *Operator) ([]Tuple, error) {
	l, r := o.Inputs[0], o.Inputs[1]
	lw, rw := l.OutWidth(), r.OutWidth()

	// Index-nested-loop path: inner joins whose right (or left) side is a
	// base-table access path with an index on a join column. This is what
	// keeps per-update trigger cost independent of data size (paper §6.4 /
	// Figure 23): only affected keys are probed.
	if o.JoinKind == JoinInner && len(o.On) > 0 {
		if res, ok, err := ctx.tryIndexJoin(o, l, r, lw, rw, false); ok || err != nil {
			return res, err
		}
		if res, ok, err := ctx.tryIndexJoin(o, r, l, rw, lw, true); ok || err != nil {
			return res, err
		}
	}

	lt, err := ctx.Eval(l)
	if err != nil {
		return nil, err
	}
	rt, err := ctx.Eval(r)
	if err != nil {
		return nil, err
	}
	if len(o.On) == 0 {
		return ctx.nestedLoopJoin(o, lt, rt, lw, rw)
	}
	return ctx.hashJoin(o, lt, rt, lw, rw)
}

// tryIndexJoin attempts an index-nested-loop join with `outer` as the
// driving side and `inner` as the indexed base table. When swapped is true,
// outer corresponds to the operator's right input.
func (ctx *EvalContext) tryIndexJoin(o *Operator, outer, inner *Operator, ow, iw int, swapped bool) ([]Tuple, bool, error) {
	bp := matchBasePath(inner)
	if bp == nil {
		return nil, false, nil
	}
	// Pick the first equi-pair whose inner column is indexed.
	probeIdx := -1
	var probeCol string
	for i, eq := range o.On {
		innerOut := eq.R
		if swapped {
			innerOut = eq.L
		}
		baseCol := bp.colMap[innerOut]
		name := ""
		if td, ok := ctx.DB.Schema().Table(bp.table); ok {
			name = td.Columns[baseCol].Name
		}
		if name != "" && ctx.DB.HasIndex(bp.table, name) {
			probeIdx = i
			probeCol = name
			break
		}
	}
	if probeIdx < 0 {
		return nil, false, nil
	}
	ot, err := ctx.Eval(outer)
	if err != nil {
		return nil, false, err
	}
	// Heuristic: only probe when the driving side is small relative to the
	// table; otherwise a hash join over a single scan is cheaper.
	if n := ctx.DB.RowCount(bp.table); len(ot) > 64 && len(ot)*4 > n {
		return nil, false, nil
	}
	ctx.Stats.IndexNLJoins++
	var out []Tuple
	for _, otup := range ot {
		outerCol := o.On[probeIdx].L
		if swapped {
			outerCol = o.On[probeIdx].R
		}
		probeVal := otup[outerCol]
		if probeVal.IsNull() {
			continue
		}
		err := ctx.lookupPath(bp, probeCol, probeVal, func(r reldb.Row) bool {
			// Apply residual base predicate.
			if bp.residual != nil {
				v, e := bp.residual.Eval(unaryEnv(r))
				if e != nil {
					err = e
					return false
				}
				if v.IsNull() || !v.EffectiveBool() {
					return true
				}
			}
			// Map base row to the inner operator's output shape.
			itup := make(Tuple, len(bp.colMap))
			for i, bc := range bp.colMap {
				itup[i] = r[bc]
			}
			// Verify remaining equi-pairs.
			for i, eq := range o.On {
				if i == probeIdx {
					continue
				}
				lv, rv := otup[eq.L], itup[eq.R]
				if swapped {
					lv, rv = itup[eq.L], otup[eq.R]
				}
				if lv.IsNull() || rv.IsNull() || !xdm.Equal(lv, rv) {
					return true
				}
			}
			var joined Tuple
			if swapped {
				joined = concatTuples(itup, otup)
			} else {
				joined = concatTuples(otup, itup)
			}
			out = append(out, joined)
			return true
		})
		if err != nil {
			return nil, false, err
		}
	}
	// Residual join predicate over the combined row.
	if o.JoinPred != nil {
		kept := out[:0]
		for _, t := range out {
			var lpart, rpart []xdm.Value
			if swapped {
				lpart, rpart = t[:iw], t[iw:]
			} else {
				lpart, rpart = t[:ow], t[ow:]
			}
			v, err := o.JoinPred.Eval(&Env{In: [2][]xdm.Value{lpart, rpart}})
			if err != nil {
				return nil, false, err
			}
			if !v.IsNull() && v.EffectiveBool() {
				kept = append(kept, t)
			}
		}
		out = kept
	}
	return out, true, nil
}

func pkKeyOf(r reldb.Row, pk []int) string {
	if len(pk) == 0 {
		return xdm.TupleKey(r)
	}
	ks := make([]xdm.Value, len(pk))
	for i, c := range pk {
		ks[i] = r[c]
	}
	return xdm.TupleKey(ks)
}

// oldExclFor returns (building once per context) the Δ primary-key set of
// a table, used to mask already-updated rows out of B_old probes.
func (ctx *EvalContext) oldExclFor(table string, pk []int) map[string]bool {
	if m, ok := ctx.oldExcl[table]; ok {
		return m
	}
	tr := ctx.transition(table)
	m := make(map[string]bool, len(tr.Inserted))
	for _, r := range tr.Inserted {
		m[pkKeyOf(r, pk)] = true
	}
	if ctx.oldExcl == nil {
		ctx.oldExcl = map[string]map[string]bool{}
	}
	ctx.oldExcl[table] = m
	return m
}

// deletedByCol returns (building once per context) the table's ∇ rows
// bucketed by the given column's value key.
func (ctx *EvalContext) deletedByCol(table string, col int) map[string][]reldb.Row {
	key := tableCol{table, col}
	if m, ok := ctx.delIdx[key]; ok {
		return m
	}
	tr := ctx.transition(table)
	m := make(map[string][]reldb.Row, len(tr.Deleted))
	for _, r := range tr.Deleted {
		k := r[col].Key()
		m[k] = append(m[k], r)
	}
	if ctx.delIdx == nil {
		ctx.delIdx = map[tableCol]map[string][]reldb.Row{}
	}
	ctx.delIdx[key] = m
	return m
}

// lookupPath probes a base-path by index. For SrcOld it reconstructs the
// pre-update row set on the fly: current rows whose primary key is not in
// ΔB, plus the matching ∇B rows (paper §4.2's B_old, evaluated per probe
// instead of materialized).
func (ctx *EvalContext) lookupPath(bp *basePath, probeCol string, probeVal xdm.Value, fn func(reldb.Row) bool) error {
	if bp.src == SrcBase {
		return ctx.DB.Lookup(bp.table, probeCol, probeVal, fn)
	}
	excl := ctx.oldExclFor(bp.table, bp.pk)
	stop := false
	err := ctx.DB.Lookup(bp.table, probeCol, probeVal, func(r reldb.Row) bool {
		if len(excl) > 0 && excl[pkKeyOf(r, bp.pk)] {
			return true
		}
		if !fn(r) {
			stop = true
			return false
		}
		return true
	})
	if err != nil || stop {
		return err
	}
	probeIdx := -1
	if td, ok := ctx.DB.Schema().Table(bp.table); ok {
		probeIdx = td.ColIndex(probeCol)
	}
	if probeIdx < 0 {
		return fmt.Errorf("xqgm: unknown probe column %q on %s", probeCol, bp.table)
	}
	for _, r := range ctx.deletedByCol(bp.table, probeIdx)[probeVal.Key()] {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

func concatTuples(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func nullTuple(w int) Tuple {
	out := make(Tuple, w)
	for i := range out {
		out[i] = xdm.Null
	}
	return out
}

func (ctx *EvalContext) hashJoin(o *Operator, lt, rt []Tuple, lw, rw int) ([]Tuple, error) {
	ctx.Stats.HashJoins++
	// Build on the right side; builds over Constants inputs (the grouped
	// trigger plans' constants tables) are cached on the operator since
	// their rows never change.
	var build map[string][]Tuple
	var cacheInto *Operator
	if r := o.Inputs[1]; r.Type == OpConstants {
		sig := fmt.Sprint(o.On)
		if r.constBuild == nil {
			r.constBuild = map[string]*constBuildEntry{}
		}
		if e, ok := r.constBuild[sig]; ok {
			build = e.byKey
		} else {
			cacheInto = r
		}
	}
	rightKey := func(t Tuple) (string, bool) {
		ks := make([]xdm.Value, len(o.On))
		for i, eq := range o.On {
			v := t[eq.R]
			if v.IsNull() {
				return "", false
			}
			ks[i] = v
		}
		return xdm.TupleKey(ks), true
	}
	leftKey := func(t Tuple) (string, bool) {
		ks := make([]xdm.Value, len(o.On))
		for i, eq := range o.On {
			v := t[eq.L]
			if v.IsNull() {
				return "", false
			}
			ks[i] = v
		}
		return xdm.TupleKey(ks), true
	}
	if build == nil {
		build = make(map[string][]Tuple, len(rt))
		for _, t := range rt {
			if k, ok := rightKey(t); ok {
				build[k] = append(build[k], t)
			}
		}
		if cacheInto != nil {
			cacheInto.constBuild[fmt.Sprint(o.On)] = &constBuildEntry{byKey: build}
		}
	}
	matchPred := func(l, r Tuple) (bool, error) {
		if o.JoinPred == nil {
			return true, nil
		}
		v, err := o.JoinPred.Eval(&Env{In: [2][]xdm.Value{l, r}})
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.EffectiveBool(), nil
	}
	var out []Tuple
	switch o.JoinKind {
	case JoinInner, JoinLeftOuter, JoinLeftAnti:
		for _, lt1 := range lt {
			matched := false
			if k, ok := leftKey(lt1); ok {
				for _, rt1 := range build[k] {
					okp, err := matchPred(lt1, rt1)
					if err != nil {
						return nil, err
					}
					if !okp {
						continue
					}
					matched = true
					if o.JoinKind != JoinLeftAnti {
						out = append(out, concatTuples(lt1, rt1))
					}
				}
			}
			if !matched {
				switch o.JoinKind {
				case JoinLeftOuter, JoinLeftAnti:
					out = append(out, concatTuples(lt1, nullTuple(rw)))
				}
			}
		}
	case JoinRightAnti:
		// Build on the left side instead.
		lbuild := make(map[string][]Tuple, len(lt))
		for _, t := range lt {
			if k, ok := leftKey(t); ok {
				lbuild[k] = append(lbuild[k], t)
			}
		}
		for _, rt1 := range rt {
			matched := false
			if k, ok := rightKey(rt1); ok {
				for _, lt1 := range lbuild[k] {
					okp, err := matchPred(lt1, rt1)
					if err != nil {
						return nil, err
					}
					if okp {
						matched = true
						break
					}
				}
			}
			if !matched {
				out = append(out, concatTuples(nullTuple(lw), rt1))
			}
		}
	}
	return out, nil
}

func (ctx *EvalContext) nestedLoopJoin(o *Operator, lt, rt []Tuple, lw, rw int) ([]Tuple, error) {
	ctx.Stats.NestedLoopJoin++
	matchPred := func(l, r Tuple) (bool, error) {
		if o.JoinPred == nil {
			return true, nil
		}
		v, err := o.JoinPred.Eval(&Env{In: [2][]xdm.Value{l, r}})
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.EffectiveBool(), nil
	}
	var out []Tuple
	switch o.JoinKind {
	case JoinInner, JoinLeftOuter, JoinLeftAnti:
		for _, lt1 := range lt {
			matched := false
			for _, rt1 := range rt {
				okp, err := matchPred(lt1, rt1)
				if err != nil {
					return nil, err
				}
				if !okp {
					continue
				}
				matched = true
				if o.JoinKind != JoinLeftAnti {
					out = append(out, concatTuples(lt1, rt1))
				}
			}
			if !matched && (o.JoinKind == JoinLeftOuter || o.JoinKind == JoinLeftAnti) {
				out = append(out, concatTuples(lt1, nullTuple(rw)))
			}
		}
	case JoinRightAnti:
		for _, rt1 := range rt {
			matched := false
			for _, lt1 := range lt {
				okp, err := matchPred(lt1, rt1)
				if err != nil {
					return nil, err
				}
				if okp {
					matched = true
					break
				}
			}
			if !matched {
				out = append(out, concatTuples(nullTuple(lw), rt1))
			}
		}
	}
	return out, nil
}

// --- group by ---

func (ctx *EvalContext) evalGroupBy(o *Operator) ([]Tuple, error) {
	in, err := ctx.Eval(o.Inputs[0])
	if err != nil {
		return nil, err
	}
	inKey := o.Inputs[0].Key

	type group struct {
		keyVals []xdm.Value
		rows    []Tuple
	}
	groups := map[string]*group{}
	var order []string
	for _, t := range in {
		ks := make([]xdm.Value, len(o.GroupCols))
		for i, c := range o.GroupCols {
			ks[i] = t[c]
		}
		k := xdm.TupleKey(ks)
		g, ok := groups[k]
		if !ok {
			g = &group{keyVals: ks}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, t)
	}
	// Global aggregate over empty input yields one row (SQL semantics);
	// grouped aggregate over empty input yields none.
	if len(o.GroupCols) == 0 && len(order) == 0 {
		k := xdm.TupleKey(nil)
		groups[k] = &group{}
		order = append(order, k)
	}
	sort.Strings(order) // deterministic group order
	out := make([]Tuple, 0, len(order))
	for _, k := range order {
		g := groups[k]
		// Deterministic intra-group order: sort by the input's canonical
		// key when available, else by full tuple. This fixes the document
		// order of aggXMLFrag sequences (XQuery for-loop order over
		// relational data is implementation-defined; we pick key order).
		sortTuples(g.rows, inKey)
		t := make(Tuple, 0, len(o.GroupCols)+len(o.Aggs))
		t = append(t, g.keyVals...)
		for _, a := range o.Aggs {
			v, err := evalAgg(a, g.rows)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		out = append(out, t)
	}
	return out, nil
}

func sortTuples(rows []Tuple, key []int) {
	if len(rows) < 2 {
		return
	}
	cmp := func(a, b Tuple) int {
		if key != nil {
			for _, c := range key {
				if r := xdm.Compare(a[c], b[c]); r != 0 {
					return r
				}
			}
			return 0
		}
		for i := range a {
			if r := xdm.Compare(a[i], b[i]); r != 0 {
				return r
			}
		}
		return 0
	}
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
}

func evalAgg(a Agg, rows []Tuple) (xdm.Value, error) {
	if a.Func == AggCount && a.Arg == nil {
		return xdm.Int(int64(len(rows))), nil
	}
	acc := NewAccumulator(a.Func)
	var env Env
	for _, t := range rows {
		env.In[0] = t
		v, err := a.Arg.Eval(&env)
		if err != nil {
			return xdm.Null, err
		}
		acc.Add(v)
	}
	return acc.Result(), nil
}

// --- union ---

func (ctx *EvalContext) evalUnion(o *Operator) ([]Tuple, error) {
	var out []Tuple
	var seen map[string]bool
	if o.Distinct {
		seen = map[string]bool{}
	}
	for _, in := range o.Inputs {
		ts, err := ctx.Eval(in)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if o.Distinct {
				k := xdm.TupleKey(t)
				if seen[k] {
					continue
				}
				seen[k] = true
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// SortedEval evaluates o and returns the tuples sorted by the given
// columns (all columns when cols is nil) for deterministic comparison in
// tests and oracles.
func (ctx *EvalContext) SortedEval(o *Operator, cols []int) ([]Tuple, error) {
	ts, err := ctx.Eval(o)
	if err != nil {
		return nil, err
	}
	out := append([]Tuple(nil), ts...)
	sortTuples(out, cols)
	return out, nil
}
