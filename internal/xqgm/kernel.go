package xqgm

import (
	"fmt"
	"strings"

	"quark/internal/xdm"
)

// The value kernels below work on already evaluated xdm values. The
// evaluator calls them from Call, ElemCtor, PathStep and GroupBy, and
// internal/sqlshim calls the same code for the UDFs and aggregates that
// core.RenderSQL emits, so the rendered SQL and the XQGM graph share one
// definition of every value operation; only argument evaluation, scoping
// and row handling differ between the two.

// Func is one scalar function of the evaluator: the name a Call carries,
// the UDF name core.RenderSQL emits for it, and its argument count (MaxArgs
// is MinArgs for a fixed arity, or -1 for a variadic function).
type Func struct {
	Name    string
	SQL     string
	MinArgs int
	MaxArgs int
	apply   func(args []xdm.Value) xdm.Value
}

// funcs is the single table of evaluator functions and their backend
// names. A function added here without a backend mapping in sqlshim fails
// sqlshim's drift test.
var funcs = []Func{
	{Name: "data", SQL: "xml_data", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Atomize(a[0])
	}},
	{Name: "string", SQL: "xml_string", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Str(a[0].AsString())
	}},
	// count/empty/exists apply to a sequence-valued argument (typically
	// an aggXMLFrag column).
	{Name: "count", SQL: "seq_count", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Int(int64(a[0].SeqLen()))
	}},
	{Name: "empty", SQL: "seq_empty", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Bool(a[0].SeqLen() == 0)
	}},
	{Name: "exists", SQL: "seq_exists", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Bool(a[0].SeqLen() > 0)
	}},
	{Name: "not", SQL: "NOT", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		if a[0].IsNull() {
			return xdm.Null
		}
		return xdm.Bool(!a[0].EffectiveBool())
	}},
	{Name: "concat", SQL: "concat", MinArgs: 0, MaxArgs: -1, apply: func(a []xdm.Value) xdm.Value {
		var sb strings.Builder
		for _, v := range a {
			sb.WriteString(v.AsString())
		}
		return xdm.Str(sb.String())
	}},
	{Name: "abs", SQL: "ABS", MinArgs: 1, MaxArgs: 1, apply: func(a []xdm.Value) xdm.Value {
		v := xdm.Atomize(a[0])
		if v.IsNull() {
			return xdm.Null
		}
		if v.Kind() == xdm.KindInt {
			i := v.AsInt()
			if i < 0 {
				i = -i
			}
			return xdm.Int(i)
		}
		f := v.AsFloat()
		if f < 0 {
			f = -f
		}
		return xdm.Float(f)
	}},
	{Name: "coalesce", SQL: "COALESCE", MinArgs: 0, MaxArgs: -1, apply: func(a []xdm.Value) xdm.Value {
		for _, v := range a {
			if !v.IsNull() {
				return v
			}
		}
		return xdm.Null
	}},
	// Deep structural equality, including node values; this is the
	// tagger-level OLD_NODE = NEW_NODE comparison of Appendix E.1.
	{Name: "deep-equal", SQL: "deep_equal", MinArgs: 2, MaxArgs: 2, apply: func(a []xdm.Value) xdm.Value {
		return xdm.Bool(xdm.Equal(a[0], a[1]))
	}},
}

var funcIndex = func() map[string]*Func {
	m := make(map[string]*Func, len(funcs))
	for i := range funcs {
		m[funcs[i].Name] = &funcs[i]
	}
	return m
}()

// Funcs returns the evaluator's scalar functions in table order.
func Funcs() []Func { return append([]Func(nil), funcs...) }

// LookupFunc returns the evaluator function named name.
func LookupFunc(name string) (*Func, bool) {
	f, ok := funcIndex[name]
	return f, ok
}

// checkArity reports an error unless the function accepts n arguments.
func (f *Func) checkArity(n int) error {
	switch {
	case n >= f.MinArgs && (f.MaxArgs < 0 || n <= f.MaxArgs):
		return nil
	case f.MaxArgs < 0:
		return fmt.Errorf("%s() takes at least %d arguments, got %d", f.Name, f.MinArgs, n)
	case f.MinArgs == 1:
		return fmt.Errorf("%s() takes 1 argument, got %d", f.Name, n)
	default:
		return fmt.Errorf("%s() takes %d arguments, got %d", f.Name, f.MinArgs, n)
	}
}

// Apply runs the function's kernel. The caller has checked the arity.
func (f *Func) Apply(args []xdm.Value) xdm.Value { return f.apply(args) }

// CheckCall reports an error unless name is an evaluator function that
// accepts n arguments. Compilers call it before building a Call.
func CheckCall(name string, n int) error {
	f, ok := funcIndex[name]
	if !ok {
		return fmt.Errorf("xqgm: unknown function %q", name)
	}
	return f.checkArity(n)
}

// CallFunc applies the evaluator function name to evaluated arguments.
func CallFunc(name string, args []xdm.Value) (xdm.Value, error) {
	f, ok := funcIndex[name]
	if !ok {
		return xdm.Null, fmt.Errorf("xqgm: unknown function %q", name)
	}
	if err := f.checkArity(len(args)); err != nil {
		return xdm.Null, err
	}
	return f.apply(args), nil
}

// AppendContent places v into the constructed element n: nulls vanish,
// nodes are deep-copied (attribute nodes route to Attrs via AppendChild),
// sequences splice recursively, and scalars become text nodes of their
// lexical form.
func AppendContent(n *xdm.Node, v xdm.Value) {
	switch v.Kind() {
	case xdm.KindNull:
		// empty content
	case xdm.KindNode:
		n.AppendChild(v.AsNode().Copy())
	case xdm.KindSeq:
		for _, e := range v.AsSeq() {
			AppendContent(n, e)
		}
	default:
		n.AppendChild(xdm.TextNd(v.Lexical()))
	}
}

// StepItems returns the items one path step reaches from the nodes of v
// along axis ("child", "attribute" or "descendant"), matching name
// ("*" for any). Non-node items of v are skipped. Attribute values
// atomize to untyped atomics, so numerics are parsed and compare
// numerically.
func StepItems(v xdm.Value, axis, name string) ([]xdm.Value, error) {
	var out []xdm.Value
	for _, item := range v.AsSeq() {
		n := item.AsNode()
		if n == nil {
			continue
		}
		switch axis {
		case "child":
			for _, c := range n.ChildElements(name) {
				out = append(out, xdm.NodeVal(c))
			}
		case "attribute":
			if name == "*" {
				for _, a := range n.Attrs {
					out = append(out, xdm.ParseTyped(a.Text))
				}
			} else if av, ok := n.Attribute(name); ok {
				out = append(out, xdm.ParseTyped(av))
			}
		case "descendant":
			for _, d := range n.Descendants(name, nil) {
				out = append(out, xdm.NodeVal(d))
			}
		default:
			return nil, fmt.Errorf("xqgm: unsupported axis %q", axis)
		}
	}
	return out, nil
}

// ItemsValue is the value of a path step's items: null when there are
// none, the item itself when there is one, a sequence otherwise.
func ItemsValue(items []xdm.Value) xdm.Value {
	switch len(items) {
	case 0:
		return xdm.Null
	case 1:
		return items[0]
	default:
		return xdm.Seq(items)
	}
}

// AggFuncByName returns the aggregate whose name (AggFunc.String) matches
// name case-insensitively, as SQL spells it.
func AggFuncByName(name string) (AggFunc, bool) {
	for f := AggCount; f <= AggXMLFrag; f++ {
		if strings.EqualFold(f.String(), name) {
			return f, true
		}
	}
	return 0, false
}

// Accumulator folds one aggregate over its argument values, one Add per
// input row. count counts the sequence items of non-null values; sum stays
// integral while every input is an integer; avg is always a float; min and
// max compare atomized values; aggXMLFrag splices sequences in Add order.
// count(*) counts rows and needs no accumulator.
type Accumulator struct {
	fn    AggFunc
	n     int64 // count: items so far; sum/avg/min/max: non-null inputs
	isum  int64
	fsum  float64
	float bool // some sum/avg input was not an integer
	best  xdm.Value
	items []xdm.Value
}

// NewAccumulator starts an empty fold of f.
func NewAccumulator(f AggFunc) Accumulator { return Accumulator{fn: f} }

// Add folds one argument value into the aggregate.
func (a *Accumulator) Add(v xdm.Value) {
	if v.IsNull() {
		return
	}
	switch a.fn {
	case AggCount:
		a.n += int64(v.SeqLen())
	case AggSum, AggAvg:
		v = xdm.Atomize(v)
		if v.IsNull() {
			return
		}
		if v.Kind() == xdm.KindInt {
			a.isum += v.AsInt()
		} else {
			a.float = true
		}
		a.fsum += v.AsFloat()
		a.n++
	case AggMin, AggMax:
		v = xdm.Atomize(v)
		if v.IsNull() {
			return
		}
		if a.n == 0 {
			a.best = v
		} else if c := xdm.Compare(v, a.best); (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0) {
			a.best = v
		}
		a.n++
	case AggXMLFrag:
		a.items = append(a.items, v.AsSeq()...)
	}
}

// Result returns the aggregate of the values added so far: null for sum,
// avg, min and max over no non-null input.
func (a *Accumulator) Result() xdm.Value {
	switch a.fn {
	case AggCount:
		return xdm.Int(a.n)
	case AggXMLFrag:
		return xdm.Seq(a.items)
	}
	if a.n == 0 {
		return xdm.Null
	}
	switch a.fn {
	case AggSum:
		if a.float {
			return xdm.Float(a.fsum)
		}
		return xdm.Int(a.isum)
	case AggAvg:
		return xdm.Float(a.fsum / float64(a.n))
	default:
		return a.best
	}
}
