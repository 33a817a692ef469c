package sqlshim

import (
	"fmt"
	"sort"
	"strings"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// udf is one scalar function of the backend: an evaluator kernel under the
// name core.RenderSQL emits for it, or one of the constructors the renderer
// emits for element construction, sequences and node literals.
type udf struct {
	min, max int // argument count bounds; max < 0 means variadic
	call     func(args []xdm.Value) (xdm.Value, error)
}

// udfs maps lower-case UDF names (the parser lower-cases call names) to
// their implementations. The evaluator's functions come from its kernel
// table, inverted through their SQL names.
var udfs = func() map[string]udf {
	m := map[string]udf{
		// Mirrors the compiler's sequence constructor: no flattening
		// here; consumers splice via AsSeq.
		"xml_concat": {0, -1, func(a []xdm.Value) (xdm.Value, error) {
			return xdm.Seq(append([]xdm.Value{}, a...)), nil
		}},
		"xml_parse": {1, 1, func(a []xdm.Value) (xdm.Value, error) {
			n, err := xdm.Parse(a[0].AsString())
			if err != nil {
				return xdm.Null, fmt.Errorf("sqlshim: xml_parse: %v", err)
			}
			return xdm.NodeVal(n), nil
		}},
		"xml_attr": {2, 2, func(a []xdm.Value) (xdm.Value, error) {
			return xdm.NodeVal(xdm.Attr(a[0].AsString(), a[1].Lexical())), nil
		}},
		"xml_element": {1, -1, func(a []xdm.Value) (xdm.Value, error) {
			n := xdm.Elem(a[0].AsString())
			for _, v := range a[1:] {
				xqgm.AppendContent(n, v)
			}
			return xdm.NodeVal(n), nil
		}},
	}
	for _, f := range xqgm.Funcs() {
		name := strings.ToLower(f.SQL)
		if _, dup := m[name]; dup {
			panic("sqlshim: two functions share the UDF name " + name)
		}
		m[name] = udf{f.MinArgs, f.MaxArgs, func(a []xdm.Value) (xdm.Value, error) {
			return f.Apply(a), nil
		}}
	}
	return m
}()

// callScalar dispatches the scalar UDFs emitted by core.RenderSQL. The
// argument count is checked here, once, before any kernel indexes its
// arguments: SQL text reaches this point from any database/sql caller.
func callScalar(name string, vals []xdm.Value) (xdm.Value, error) {
	u, ok := udfs[name]
	if !ok {
		return xdm.Null, fmt.Errorf("sqlshim: unknown function %s", name)
	}
	if len(vals) < u.min || (u.max >= 0 && len(vals) > u.max) {
		return xdm.Null, fmt.Errorf("sqlshim: %s: wrong number of arguments (%d)", name, len(vals))
	}
	return u.call(vals)
}

// evalPathStep implements path_step(input, axis, name[, predicate]). The
// predicate sees the step item as the sole binding of an inner scope named
// ITEM, with the enclosing scope still visible for constants-table columns.
func evalPathStep(en *env, x *CallE) (xdm.Value, error) {
	if len(x.Args) < 3 || len(x.Args) > 4 {
		return xdm.Null, fmt.Errorf("sqlshim: path_step: wrong number of arguments (%d)", len(x.Args))
	}
	in, err := evalExpr(en, x.Args[0])
	if err != nil {
		return xdm.Null, err
	}
	axisV, err := evalExpr(en, x.Args[1])
	if err != nil {
		return xdm.Null, err
	}
	nameV, err := evalExpr(en, x.Args[2])
	if err != nil {
		return xdm.Null, err
	}
	out, err := xqgm.StepItems(in, axisV.AsString(), nameV.AsString())
	if err != nil {
		return xdm.Null, err
	}
	if len(x.Args) == 4 {
		kept := out[:0]
		for _, item := range out {
			isc := &scope{parent: en.sc, binds: []*bind{{cols: []string{"item"}, row: []xdm.Value{item}}}}
			pen := &env{ctx: en.ctx, sc: isc, win: en.win, agg: en.agg}
			pv, err := evalExpr(pen, x.Args[3])
			if err != nil {
				return xdm.Null, err
			}
			if !pv.IsNull() && pv.EffectiveBool() {
				kept = append(kept, item)
			}
		}
		out = kept
	}
	return xqgm.ItemsValue(out), nil
}

// evalAggCall computes one aggregate over a group's joined rows with the
// evaluator's accumulator. AGGXMLFRAG first orders the rows by its own
// ORDER BY; the evaluator gets that order from its GroupBy input instead.
func evalAggCall(ctx *qctx, rowScope *scope, setRow setRowFn, a *CallE, rows [][][]xdm.Value) (xdm.Value, error) {
	fn, ok := xqgm.AggFuncByName(a.Name)
	if !ok {
		return xdm.Null, fmt.Errorf("sqlshim: unknown aggregate %s", a.Name)
	}
	if a.Star {
		if fn != xqgm.AggCount {
			return xdm.Null, fmt.Errorf("sqlshim: %s: wrong number of arguments (*)", a.Name)
		}
		return xdm.Int(int64(len(rows))), nil
	}
	if len(a.Args) != 1 {
		return xdm.Null, fmt.Errorf("sqlshim: %s: wrong number of arguments (%d)", a.Name, len(a.Args))
	}
	en := &env{ctx: ctx, sc: rowScope}
	if fn == xqgm.AggXMLFrag && len(a.OrderBy) > 0 {
		var err error
		if rows, err = orderAggRows(en, setRow, a.OrderBy, rows); err != nil {
			return xdm.Null, err
		}
	}
	acc := xqgm.NewAccumulator(fn)
	for _, jr := range rows {
		setRow(jr)
		v, err := evalExpr(en, a.Args[0])
		if err != nil {
			return xdm.Null, err
		}
		acc.Add(v)
	}
	return acc.Result(), nil
}

// orderAggRows sorts a group's rows by an aggregate's ORDER BY keys
// (stable, so ties keep group order).
func orderAggRows(en *env, setRow setRowFn, by []OrderSpec, rows [][][]xdm.Value) ([][][]xdm.Value, error) {
	type krow struct {
		jr   [][]xdm.Value
		keys []xdm.Value
	}
	krows := make([]krow, len(rows))
	for i, jr := range rows {
		setRow(jr)
		keys := make([]xdm.Value, len(by))
		for j, o := range by {
			v, err := evalExpr(en, o.E)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		krows[i] = krow{jr: jr, keys: keys}
	}
	sort.SliceStable(krows, func(x, y int) bool {
		for j := range by {
			r := xdm.Compare(krows[x].keys[j], krows[y].keys[j])
			if by[j].Desc {
				r = -r
			}
			if r != 0 {
				return r < 0
			}
		}
		return false
	})
	ordered := make([][][]xdm.Value, len(krows))
	for i, kr := range krows {
		ordered[i] = kr.jr
	}
	return ordered, nil
}
