package query

import (
	"fmt"
	"sort"

	"oodb/internal/model"
)

// The common model's query semantics (Kim §3.2), implemented once. The
// engine's executor, the federation's Scan fallback and the shard router
// all evaluate through this file, so a semantic is added or fixed in one
// place:
//
//   - WalkPath: how an attribute path resolves against an object graph;
//   - EvalBool: predicate evaluation over the values a Getter reads;
//   - EarlyLimit and OrderLimit: stable ORDER BY, then LIMIT;
//   - fold and SplitAggregates: aggregate folding, whole or in two phases.

// Getter resolves an attribute path against one candidate object. It is
// the predicate evaluator's only view of the data: the engine walks its
// stored objects, the federation reads a member's entity.
type Getter func(steps []string) (model.Value, error)

// EvalBool evaluates a predicate against the candidate get reads.
func EvalBool(ex Expr, get Getter) (bool, error) {
	switch n := ex.(type) {
	case *Binary:
		switch n.Op {
		case OpAnd:
			l, err := EvalBool(n.L, get)
			if err != nil || !l {
				return false, err
			}
			return EvalBool(n.R, get)
		case OpOr:
			l, err := EvalBool(n.L, get)
			if err != nil || l {
				return l, err
			}
			return EvalBool(n.R, get)
		case OpIn:
			lv, err := evalValue(n.L, get)
			if err != nil {
				return false, err
			}
			list, ok := n.R.(*List)
			if !ok {
				return false, fmt.Errorf("query: IN requires a literal list")
			}
			for _, item := range list.Items {
				if compareOp(OpEq, lv, item) {
					return true, nil
				}
			}
			return false, nil
		default:
			lv, err := evalValue(n.L, get)
			if err != nil {
				return false, err
			}
			rv, err := evalValue(n.R, get)
			if err != nil {
				return false, err
			}
			return compareOp(n.Op, lv, rv), nil
		}
	case *Not:
		v, err := EvalBool(n.E, get)
		return !v, err
	case *PathExpr:
		v, err := get(n.Path.Steps)
		if err != nil {
			return false, err
		}
		b, _ := v.AsBool()
		return b, nil
	case *Lit:
		b, _ := n.V.AsBool()
		return b, nil
	default:
		return false, fmt.Errorf("query: cannot evaluate %T as boolean", ex)
	}
}

// evalValue evaluates an operand expression to a value.
func evalValue(ex Expr, get Getter) (model.Value, error) {
	switch n := ex.(type) {
	case *Lit:
		return n.V, nil
	case *PathExpr:
		return get(n.Path.Steps)
	default:
		return model.Null, fmt.Errorf("query: cannot evaluate %T as value", ex)
	}
}

// compareOp applies a comparison with SQL-style null semantics: ordering
// comparisons with null are false; equality treats null = null as true
// (needed for `path = null` existence tests). Multi-valued operands
// (set-valued attributes, paths through set-valued references) compare
// existentially.
func compareOp(op BinOp, l, r model.Value) bool {
	if op == OpContains {
		return contains(l, r)
	}
	if lm, ok := l.AsSet(); ok && r.Kind() != model.KindSet {
		for _, m := range lm {
			if compareOp(op, m, r) {
				return true
			}
		}
		return false
	}
	switch op {
	case OpEq:
		return model.Compare(l, r) == 0
	case OpNe:
		return model.Compare(l, r) != 0
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := model.Compare(l, r)
	switch op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// contains is CONTAINS: whether r is a member of l or, for a set r,
// whether every member of r is. Null is a member of nothing. A scalar l
// is the one-member set a path walk flattened, so it contains itself.
func contains(l, r model.Value) bool {
	if rm, ok := r.AsSet(); ok {
		for _, m := range rm {
			if !contains(l, m) {
				return false
			}
		}
		return len(rm) > 0
	}
	if r.IsNull() {
		return false
	}
	if lm, ok := l.AsSet(); ok {
		for _, m := range lm {
			if model.Compare(m, r) == 0 {
				return true
			}
		}
		return false
	}
	return !l.IsNull() && model.Compare(l, r) == 0
}

// WalkPath resolves an attribute path from root: attr reads one step of
// one object and deref resolves a reference. A set-valued step fans out
// over its members. An interior value that is not a reference, or a
// reference deref cannot resolve (dangling, invisible), dead-ends. The
// terminal values flatten: none is null, one is that value, several are
// a set (a set that deduplicates to one member is that member). An attr
// error, such as an unknown attribute, fails the walk.
func WalkPath[O any](root O, steps []string, attr func(O, string) (model.Value, error),
	deref func(model.OID) (O, bool)) (model.Value, error) {
	cur := []O{root}
	var vals []model.Value
	for i, step := range steps {
		vals = vals[:0]
		for _, o := range cur {
			v, err := attr(o, step)
			if err != nil {
				return model.Null, err
			}
			if members, ok := v.AsSet(); ok {
				vals = append(vals, members...)
			} else if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		if i == len(steps)-1 {
			break
		}
		next := cur[:0:0]
		for _, v := range vals {
			if oid, ok := v.AsRef(); ok {
				if o, ok := deref(oid); ok {
					next = append(next, o)
				}
			}
		}
		cur = next
	}
	switch len(vals) {
	case 0:
		return model.Null, nil
	case 1:
		return vals[0], nil
	}
	v := model.Set(vals...)
	flatten(&v)
	return v, nil
}

// flatten maps an empty set to null and a one-member set to its member,
// in place.
func flatten(v *model.Value) {
	if members, ok := v.AsSet(); ok {
		switch len(members) {
		case 0:
			*v = model.Null
		case 1:
			*v = members[0]
		}
	}
}

// EarlyLimit returns the row count past which collection may stop, or 0
// when every match is needed (no LIMIT, or ORDER BY must see all matches).
func EarlyLimit(q *Query) int {
	if q.OrderBy == nil && q.Limit > 0 {
		return q.Limit
	}
	return 0
}

// OrderLimit applies q's ORDER BY and LIMIT to rows: a stable sort on
// keys (keys[i] is row i's ORDER BY value; nil without ORDER BY), so
// ties keep their input order, then truncation to the LIMIT.
func OrderLimit[R any](q *Query, rows []R, keys []model.Value) []R {
	if q.OrderBy != nil {
		idxs := make([]int, len(rows))
		for i := range idxs {
			idxs[i] = i
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			c := model.Compare(keys[idxs[a]], keys[idxs[b]])
			if q.Desc {
				return c > 0
			}
			return c < 0
		})
		sorted := make([]R, len(rows))
		for i, j := range idxs {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

// fold accumulates one aggregate. SUM is exact in int64 while every input
// is Int and becomes a float64 sum once a Float arrives or the Int sum
// would overflow; AVG divides that sum by the count, and is null over no
// input.
type fold struct {
	fn    AggFunc
	n     int64 // inputs counted
	isum  int64
	fsum  float64
	float bool // fsum, not isum, is the sum
	best  model.Value
}

// add folds one input: null is skipped and a set contributes each member.
// Inputs pass by pointer: add runs once per row, and copying a Value
// through each call made the fold ~15% slower than an inline loop.
func (f *fold) add(v *model.Value) error {
	members, ok := v.AsSet()
	if !ok {
		members = []model.Value{*v}
	}
	for i := range members {
		m := &members[i]
		if m.IsNull() {
			continue
		}
		f.n++
		switch f.fn {
		case AggSum, AggAvg:
			if err := f.addNum(m); err != nil {
				return err
			}
		case AggMin:
			if f.best.IsNull() || model.Compare(*m, f.best) < 0 {
				f.best = *m
			}
		case AggMax:
			if f.best.IsNull() || model.Compare(*m, f.best) > 0 {
				f.best = *m
			}
		}
	}
	return nil
}

// addNum adds a numeric input to the sum.
func (f *fold) addNum(v *model.Value) error {
	x, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("query: %s over non-numeric value %s", f.fn, *v)
	}
	f.fsum += x
	i, isInt := v.AsInt()
	if !isInt || f.float {
		f.float = true
		return nil
	}
	s := f.isum + i
	if (i > 0 && s < f.isum) || (i < 0 && s > f.isum) {
		f.float = true
		return nil
	}
	f.isum = s
	return nil
}

// merge folds one partition's partial result of the same aggregate: the
// columns SplitAggregates shipped for it, starting at p[0].
func (f *fold) merge(p []model.Value) {
	switch f.fn {
	case AggCount:
		n, _ := p[0].AsInt()
		f.n += n
	case AggSum, AggAvg:
		if !p[0].IsNull() {
			_ = f.addNum(&p[0]) // a partition's SUM is numeric
		}
		if f.fn == AggAvg {
			n, _ := p[1].AsInt()
			f.n += n
		}
	default:
		_ = f.add(&p[0]) // MIN and MAX cannot fail
	}
}

func (f *fold) value() model.Value {
	switch f.fn {
	case AggCount:
		return model.Int(f.n)
	case AggSum:
		return f.sum()
	case AggAvg:
		if f.n == 0 {
			return model.Null
		}
		s, _ := f.sum().AsFloat()
		return model.Float(s / float64(f.n))
	default:
		return f.best
	}
}

func (f *fold) sum() model.Value {
	if f.float {
		return model.Float(f.fsum)
	}
	return model.Int(f.isum)
}

// SplitAggregates plans a two-phase aggregation over partitions of the
// data. shipped is the aggregate list every partition evaluates: AVG ships
// as SUM and COUNT, since a mean of partition means is wrong under skew.
// combine folds the partitions' shipped rows into the values of aggs.
func SplitAggregates(aggs []AggItem) (shipped []AggItem, combine func(parts [][]model.Value) []model.Value) {
	first := make([]int, len(aggs)) // shipped column of aggs[i]; AVG's COUNT follows its SUM
	for i, a := range aggs {
		first[i] = len(shipped)
		if a.Func == AggAvg {
			shipped = append(shipped, AggItem{Func: AggSum, Path: a.Path}, AggItem{Func: AggCount, Path: a.Path})
		} else {
			shipped = append(shipped, a)
		}
	}
	combine = func(parts [][]model.Value) []model.Value {
		vals := make([]model.Value, len(aggs))
		for i, a := range aggs {
			f := fold{fn: a.Func}
			for _, p := range parts {
				f.merge(p[first[i]:])
			}
			vals[i] = f.value()
		}
		return vals
	}
	return shipped, combine
}
