package query

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// Row is one result object with its projected values.
type Row struct {
	OID    model.OID
	Object *model.Object
	Values []model.Value // aligned with Result.Cols
}

// Result is a completed query.
type Result struct {
	Cols []string
	Rows []Row
}

// Run parses, plans and executes src inside tx.
func (e *Engine) Run(tx *core.Tx, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := e.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(tx, plan)
}

// Explain parses and plans src, returning the plan description.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := e.PlanQuery(q)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// Execute runs a compiled plan inside tx. The scope classes are locked
// shared for the duration of the transaction (strict 2PL).
func (e *Engine) Execute(tx *core.Tx, p *Plan) (*Result, error) {
	return e.execute(tx, p, nil)
}

// execute is Execute with an optional trace span: ExplainAnalyze passes a
// root span and every stage hangs per-stage child spans (with row and
// probe counters) off it; the normal path passes nil, which every span
// method treats as a no-op.
//
// Under a snapshot transaction (core.BeginSnapshot) the same pipeline
// runs lock-free: LockClassScan is a no-op, scans and probes resolve
// visibility by the pinned commit epoch, and path dereferences read the
// snapshot-visible version of every object they cross.
func (e *Engine) execute(tx *core.Tx, p *Plan, span *obs.Span) (*Result, error) {
	mQueriesTotal.Add(1)
	if err := tx.LockClassScan(p.Scope); err != nil {
		return nil, err
	}

	var rows []Row
	switch p.kind {
	case accessScan:
		var err error
		rows, err = e.scanRows(tx, p, span)
		if err != nil {
			return nil, err
		}
	default:
		var err error
		rows, err = e.probeRows(tx, p, span)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY, then LIMIT.
	var keys []model.Value
	var sortSpan *obs.Span // nil, a no-op, without ORDER BY
	if ob := p.Query.OrderBy; ob != nil {
		sortSpan = span.Child("sort")
		sortSpan.Set("rows_in", int64(len(rows)))
		keys = make([]model.Value, len(rows))
		for i := range rows {
			v, err := e.evalPath(tx, rows[i].Object, ob.Steps)
			if err != nil {
				sortSpan.End()
				return nil, err
			}
			keys[i] = v
		}
	}
	rows = OrderLimit(p.Query, rows, keys)
	sortSpan.End()

	// Aggregates collapse the result to a single row.
	if len(p.Query.Aggregates) > 0 {
		aggSpan := span.Child("aggregate")
		aggSpan.Set("rows_in", int64(len(rows)))
		res, err := e.aggregate(tx, p, rows)
		aggSpan.End()
		return res, err
	}

	projSpan := span.Child("project")
	projSpan.Set("rows_out", int64(len(rows)))
	defer projSpan.End()

	// Projection. One backing array serves every row's Values slice: the
	// result set is assembled and consumed together, so per-row slices
	// would only fragment the heap.
	res := &Result{}
	if len(p.Query.Select) == 0 {
		res.Cols = []string{"oid"}
		backing := make([]model.Value, len(rows))
		for i := range rows {
			backing[i] = model.Ref(rows[i].OID)
			rows[i].Values = backing[i : i+1 : i+1]
		}
	} else {
		for _, path := range p.Query.Select {
			res.Cols = append(res.Cols, path.String())
		}
		w := len(p.Query.Select)
		backing := make([]model.Value, len(rows)*w)
		for i := range rows {
			vals := backing[i*w : (i+1)*w : (i+1)*w]
			for j, path := range p.Query.Select {
				v, err := e.evalPath(tx, rows[i].Object, path.Steps)
				if err != nil {
					return nil, err
				}
				vals[j] = v
			}
			rows[i].Values = vals
		}
	}
	res.Rows = rows
	return res, nil
}

// matches evaluates the residual predicate against one candidate.
func (e *Engine) matches(tx *core.Tx, p *Plan, obj *model.Object) (bool, error) {
	if p.Query.Where == nil {
		return true, nil
	}
	return EvalBool(p.Query.Where, func(steps []string) (model.Value, error) {
		return e.evalPath(tx, obj, steps)
	})
}

// deref resolves an interior reference for path evaluation. Snapshot
// transactions read the version visible at their pinned epoch — a path
// that crosses an object mid-overwrite must not observe the writer's
// uncommitted bytes. Locked transactions read the heap directly; their
// scope S locks already make that stable.
func (e *Engine) deref(tx *core.Tx, oid model.OID) (*model.Object, error) {
	if tx != nil && tx.Snapshot() {
		return tx.Fetch(oid)
	}
	return e.db.FetchObject(oid)
}

// scanRows collects the matching rows of a heap-scan plan. A scope of more
// than one class fans out one goroutine per class (bounded by GOMAXPROCS):
// Kim's query model evaluates a hierarchy-scoped query as independent
// per-class scans, and the scope's S locks are already held, so the scans
// share nothing but the storage layer. Per-class results are concatenated
// in scope order, which makes the output identical to a sequential pass.
func (e *Engine) scanRows(tx *core.Tx, p *Plan, span *obs.Span) ([]Row, error) {
	limit := EarlyLimit(p.Query)
	if e.SerialScan || len(p.Scope) == 1 {
		var rows []Row
		for _, class := range p.Scope {
			cs := span.Child("scan " + e.className(class))
			var scanned, matched uint64
			var ierr error
			err := tx.ScanLocked(class, func(obj *model.Object) bool {
				scanned++
				ok, merr := e.matches(tx, p, obj)
				if merr != nil {
					ierr = merr
					return false
				}
				if ok {
					matched++
					rows = append(rows, Row{OID: obj.OID, Object: obj})
				}
				return limit == 0 || len(rows) < limit
			})
			mRowsScanned.Add(scanned)
			mRowsMatched.Add(matched)
			cs.Set("rows_scanned", int64(scanned))
			cs.Set("rows_matched", int64(matched))
			cs.End()
			if err != nil {
				return nil, err
			}
			if ierr != nil {
				return nil, ierr
			}
			if limit > 0 && len(rows) >= limit {
				mEarlyExits.Add(1)
				span.Set("limit_early_exit", 1)
				break
			}
		}
		return rows, nil
	}

	mFanoutWidth.Observe(uint64(len(p.Scope)))
	span.Set("fanout_width", int64(len(p.Scope)))
	perClass := make([][]Row, len(p.Scope))
	errs := make([]error, len(p.Scope))
	// full is the smallest scope index whose class alone satisfied the
	// limit: classes after it cannot contribute to the result, so their
	// scans stop early.
	var full atomic.Int64
	full.Store(int64(len(p.Scope)))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, class := range p.Scope {
		wg.Add(1)
		go func(i int, class model.ClassID) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if int64(i) > full.Load() {
				return
			}
			cs := span.Child("scan " + e.className(class))
			defer cs.End()
			var scanned, matched uint64
			var mine []Row
			var ierr error
			errs[i] = tx.ScanLocked(class, func(obj *model.Object) bool {
				if int64(i) > full.Load() {
					return false
				}
				scanned++
				ok, merr := e.matches(tx, p, obj)
				if merr != nil {
					ierr = merr
					return false
				}
				if ok {
					matched++
					mine = append(mine, Row{OID: obj.OID, Object: obj})
					if limit > 0 && len(mine) >= limit {
						for {
							cur := full.Load()
							if int64(i) >= cur || full.CompareAndSwap(cur, int64(i)) {
								break
							}
						}
						mEarlyExits.Add(1)
						return false
					}
				}
				return true
			})
			mRowsScanned.Add(scanned)
			mRowsMatched.Add(matched)
			cs.Set("rows_scanned", int64(scanned))
			cs.Set("rows_matched", int64(matched))
			if errs[i] == nil {
				errs[i] = ierr
			}
			perClass[i] = mine
		}(i, class)
	}
	wg.Wait()
	var rows []Row
	for i := range p.Scope {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rows = append(rows, perClass[i]...)
		if limit > 0 && len(rows) >= limit {
			rows = rows[:limit]
			break
		}
	}
	return rows, nil
}

// probeRows collects the matching rows of an index plan. Each index's
// postings are probed and filtered incrementally — with LIMIT and no ORDER
// BY the probe stops as soon as enough rows matched, instead of
// materializing every candidate OID and truncating afterwards (the same
// early exit the heap-scan path has).
//
// Snapshot transactions probe the same live index but resolve every
// candidate through the pinned epoch, then sweep the version-chain
// overlay for the scope classes: a commit after the snapshot began may
// have moved an object to a new key (its old posting is gone) or deleted
// it outright, and any such object by construction has a chain. The full
// WHERE re-evaluation in matches keeps stale postings out on both paths.
func (e *Engine) probeRows(tx *core.Tx, p *Plan, span *obs.Span) ([]Row, error) {
	scopeSet := make(map[model.ClassID]bool, len(p.Scope))
	for _, c := range p.Scope {
		scopeSet[c] = true
	}
	limit := EarlyLimit(p.Query)
	var rows []Row
	seen := make(map[model.OID]bool)

	// collect filters one candidate OID into rows, reporting whether the
	// probe is finished (limit satisfied) and any evaluation error. Both
	// the posting loops and the overlay sweep funnel through it so the
	// dedup map and limit accounting stay consistent.
	collect := func(oid model.OID, examined, matched *uint64) (bool, error) {
		if seen[oid] {
			return false, nil
		}
		seen[oid] = true
		*examined++
		obj, err := e.deref(tx, oid)
		if err != nil {
			return false, nil // dangling entry or invisible at this snapshot
		}
		if !scopeSet[obj.Class()] {
			return false, nil
		}
		ok, err := e.matches(tx, p, obj)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		*matched++
		rows = append(rows, Row{OID: obj.OID, Object: obj})
		return limit > 0 && len(rows) >= limit, nil
	}

	for _, idx := range p.indexes {
		ps := span.Child("probe " + idx.Name)
		mIndexProbes.Add(1)
		var oids []model.OID
		if !p.probe.IsNull() {
			oids = idx.Lookup(p.probe, scopeSet)
		} else {
			oids = idx.Range(p.lo, p.hi, p.hiInc, scopeSet)
		}
		var examined, matched uint64
		for _, oid := range oids {
			full, err := collect(oid, &examined, &matched)
			if err != nil || full {
				mRowsScanned.Add(examined)
				mRowsMatched.Add(matched)
				ps.Set("rows_examined", int64(examined))
				ps.Set("rows_matched", int64(matched))
				ps.End()
				if err != nil {
					return nil, err
				}
				mEarlyExits.Add(1)
				span.Set("limit_early_exit", 1)
				return rows, nil
			}
		}
		mRowsScanned.Add(examined)
		mRowsMatched.Add(matched)
		ps.Set("rows_examined", int64(examined))
		ps.Set("rows_matched", int64(matched))
		ps.End()
	}

	// Overlay sweep (snapshot mode only: SnapshotOverlayOIDs returns nil
	// for locked transactions, whose S locks freeze the index itself).
	for _, class := range p.Scope {
		overlay := tx.SnapshotOverlayOIDs(class)
		if len(overlay) == 0 {
			continue
		}
		os := span.Child("overlay " + e.className(class))
		var examined, matched uint64
		for _, oid := range overlay {
			full, err := collect(oid, &examined, &matched)
			if err != nil || full {
				mRowsScanned.Add(examined)
				mRowsMatched.Add(matched)
				os.Set("rows_examined", int64(examined))
				os.Set("rows_matched", int64(matched))
				os.End()
				if err != nil {
					return nil, err
				}
				mEarlyExits.Add(1)
				span.Set("limit_early_exit", 1)
				return rows, nil
			}
		}
		mRowsScanned.Add(examined)
		mRowsMatched.Add(matched)
		os.Set("rows_examined", int64(examined))
		os.Set("rows_matched", int64(matched))
		os.End()
	}
	return rows, nil
}

// aggregate folds the aggregate select list over the matched rows.
// COUNT(*) counts rows; per-path aggregates skip nulls; set values
// contribute each member. SUM and AVG require numeric inputs.
func (e *Engine) aggregate(tx *core.Tx, p *Plan, rows []Row) (*Result, error) {
	res := &Result{}
	vals := make([]model.Value, len(p.Query.Aggregates))
	for i, agg := range p.Query.Aggregates {
		res.Cols = append(res.Cols, agg.String())
		f := fold{fn: agg.Func}
		if agg.Path == nil { // COUNT(*)
			f.n = int64(len(rows))
		} else {
			for _, row := range rows {
				v, err := e.evalPath(tx, row.Object, agg.Path.Steps)
				if err != nil {
					return nil, err
				}
				if err := f.add(&v); err != nil {
					return nil, err
				}
			}
		}
		vals[i] = f.value()
	}
	res.Rows = []Row{{Values: vals}}
	return res, nil
}

// evalPath walks a path from obj (WalkPath): each step reads an attribute
// or invokes a method, and interior references dereference through tx.
func (e *Engine) evalPath(tx *core.Tx, obj *model.Object, steps []string) (model.Value, error) {
	// Single-step fast path: the common `WHERE attr op k` shape. Scans
	// evaluate it once per object, so it must not allocate, and the
	// indirect calls of the general walk cost ~10% of a scan.
	if len(steps) == 1 {
		v, err := e.stepValue(obj, steps[0])
		if err != nil {
			return model.Null, err
		}
		flatten(&v)
		return v, nil
	}
	return WalkPath(obj, steps, e.stepValue, func(oid model.OID) (*model.Object, bool) {
		o, err := e.deref(tx, oid)
		return o, err == nil
	})
}

// stepValue resolves one path step on one object: attribute first, then
// method (late-bound, no arguments).
func (e *Engine) stepValue(o *model.Object, step string) (model.Value, error) {
	if a, err := e.db.Catalog.ResolveAttr(o.Class(), step); err == nil {
		if v, ok := o.Lookup(a.ID); ok {
			return v, nil
		}
		return a.Default, nil
	}
	if m, err := e.db.Catalog.ResolveMethod(o.Class(), step); err == nil {
		if m.Impl == nil {
			return model.Null, fmt.Errorf("query: method %q has no registered implementation", step)
		}
		return m.Impl(e.db, o, nil)
	}
	return model.Null, fmt.Errorf("query: %s has no attribute or method %q", e.className(o.Class()), step)
}
