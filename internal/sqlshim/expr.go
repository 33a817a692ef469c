package sqlshim

import (
	"fmt"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// env is the expression evaluation environment: statement context, the scope
// chain of visible row bindings, and per-projection window/aggregate values.
type env struct {
	ctx *qctx
	sc  *scope
	win map[*WindowE]xdm.Value
	agg map[*CallE]xdm.Value
}

// evalExpr evaluates e with the evaluator's value semantics (3VL logic,
// null-propagating comparison/arithmetic via xdm.CompareOp/xdm.Arith).
func evalExpr(en *env, e Expr) (xdm.Value, error) {
	switch x := e.(type) {
	case *LitE:
		return x.V, nil
	case *ParamE:
		if x.Idx >= len(en.ctx.args) {
			return xdm.Null, fmt.Errorf("sqlshim: missing parameter %d", x.Idx+1)
		}
		return en.ctx.args[x.Idx], nil
	case *ColE:
		return en.sc.resolve(x.Qual, x.Name)
	case *UnaryE:
		v, err := evalExpr(en, x.E)
		if err != nil {
			return xdm.Null, err
		}
		if x.Op == "not" {
			return xqgm.CallFunc("not", []xdm.Value{v})
		}
		v = xdm.Atomize(v)
		if v.IsNull() {
			return xdm.Null, nil
		}
		if v.Kind() == xdm.KindInt {
			return xdm.Int(-v.AsInt()), nil
		}
		return xdm.Float(-v.AsFloat()), nil
	case *BinaryE:
		l, err := evalExpr(en, x.L)
		if err != nil {
			return xdm.Null, err
		}
		r, err := evalExpr(en, x.R)
		if err != nil {
			return xdm.Null, err
		}
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			op := x.Op
			if op == "<>" {
				op = "!="
			}
			return xdm.CompareOp(op, l, r)
		default:
			op := x.Op
			switch op {
			case "/":
				op = "div"
			case "%":
				op = "mod"
			}
			return xdm.Arith(op, xdm.Atomize(l), xdm.Atomize(r))
		}
	case *LogicE:
		sawNull := false
		for _, a := range x.Args {
			v, err := evalExpr(en, a)
			if err != nil {
				return xdm.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if x.Op == "and" && !v.EffectiveBool() {
				return xdm.False, nil
			}
			if x.Op == "or" && v.EffectiveBool() {
				return xdm.True, nil
			}
		}
		if sawNull {
			return xdm.Null, nil
		}
		return xdm.Bool(x.Op == "and"), nil
	case *IsNullE:
		v, err := evalExpr(en, x.E)
		if err != nil {
			return xdm.Null, err
		}
		return xdm.Bool(v.IsNull() != x.Neg), nil
	case *CallE:
		if isAggName(x.Name) {
			if v, ok := en.agg[x]; ok {
				return v, nil
			}
			return xdm.Null, fmt.Errorf("sqlshim: aggregate %s outside aggregation context", x.Name)
		}
		if x.Name == "path_step" {
			return evalPathStep(en, x)
		}
		vals := make([]xdm.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExpr(en, a)
			if err != nil {
				return xdm.Null, err
			}
			vals[i] = v
		}
		return callScalar(x.Name, vals)
	case *ExistsE:
		res, err := runCompound(en.ctx, x.Q, en.sc)
		if err != nil {
			return xdm.Null, err
		}
		return xdm.Bool(len(res.Rows) > 0), nil
	case *SubqueryE:
		res, err := runCompound(en.ctx, x.Q, en.sc)
		if err != nil {
			return xdm.Null, err
		}
		if len(res.Rows) == 0 {
			return xdm.Null, nil
		}
		if len(res.Rows) > 1 {
			return xdm.Null, fmt.Errorf("sqlshim: scalar subquery returned %d rows", len(res.Rows))
		}
		return res.Rows[0][0], nil
	case *WindowE:
		if v, ok := en.win[x]; ok {
			return v, nil
		}
		return xdm.Null, fmt.Errorf("sqlshim: window function outside projection")
	default:
		return xdm.Null, fmt.Errorf("sqlshim: unknown expression %T", e)
	}
}
