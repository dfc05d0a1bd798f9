package main

// query-mvcc: associative queries beside a durable writer. Two class
// hierarchies of the same shape (13 classes, 1540 objects each by
// default): H0, built by bench.BuildHierarchy with a class-hierarchy index
// on val, and the ledger L0, whose qty the writer moves around. A reader
// alternates snapshot (QuerySnapshot) and locked (Query) execution of one
// fixed mix: a two-sided range on the indexed H0.val, an unindexed
// predicate over the whole ledger, ORDER BY val LIMIT 10 on H0, and
// COUNT/SUM/AVG over the ledger. A writer commits transactions that each
// move qty between 8 ledger objects of one class, so SUM(qty) stays
// constant. Writers span one class only: writers that span classes
// deadlock against the readers' hierarchy S locks.
//
// The writer never writes into the indexed hierarchy: a snapshot index
// probe takes no latch and races index maintenance, and every put into a
// class an index covers re-indexes the object, whichever attribute
// changed (README.md, known gaps).

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/model"
	"oodb/internal/query"
)

const (
	hierFanout   = 3
	hierDepth    = 3 // 1 + 3 + 9 = 13 classes
	hierValRange = 100000
	hierRangeW   = 750 // two-sided range width: ~150 of ~20k rows
	ledgerRoot   = "L0"
	ledgerGroups = 16 // grp values: the unindexed predicate returns ~1/16
	qtyStart     = 100
	moveObjs     = 8
)

type queryMVCC struct {
	sc   scale
	seed int64

	db *oodb.DB
	h  *bench.Hierarchy

	// Reference answers, computed at set-up. H0.val and L0.grp never
	// change; the writer keeps SUM(qty) at qtyStart per ledger object.
	vals     []int64      // every H0.val, sorted
	ledger   [][]oodb.OID // ledger objects, per class
	nLedger  int          // ledger objects
	grpCount [ledgerGroups]int
	grpSum   int64                      // sum of every L0.grp
	scopes   map[string][]model.ClassID // plan scope of FROM <root>
}

func newQueryMVCC(sc scale, seed int64) workload { return &queryMVCC{sc: sc, seed: seed} }

func (w *queryMVCC) clients() int { return 2 }

func (w *queryMVCC) setup(dir string) error {
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		return err
	}
	w.db = db
	h, err := bench.BuildHierarchy(db, hierFanout, hierDepth, w.sc.hierPerClass, hierValRange, w.seed)
	if err != nil {
		return err
	}
	w.h = h
	if err := h.IndexCH(db); err != nil {
		return err
	}
	res, err := db.Query("SELECT val FROM " + h.Root)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		v, _ := row.Values[0].AsInt()
		w.vals = append(w.vals, v)
	}
	sort.Slice(w.vals, func(i, j int) bool { return w.vals[i] < w.vals[j] })
	if err := w.buildLedger(); err != nil {
		return err
	}
	w.scopes = make(map[string][]model.ClassID)
	for _, root := range []string{h.Root, ledgerRoot} {
		q, err := query.Parse("SELECT * FROM " + root)
		if err != nil {
			return err
		}
		plan, err := db.QueryEngine().PlanQuery(q)
		if err != nil {
			return err
		}
		w.scopes[root] = plan.Scope
	}
	return nil
}

// buildLedger defines the ledger hierarchy with H0's shape (L0 root, then
// fanout x depth subclasses) and fills each class with hierPerClass
// objects: qty = qtyStart and a seeded grp.
func (w *queryMVCC) buildLedger() error {
	if _, err := w.db.DefineClass(ledgerRoot, nil,
		oodb.Attr{Name: "qty", Domain: "Integer"},
		oodb.Attr{Name: "grp", Domain: "Integer"},
	); err != nil {
		return err
	}
	classes := []string{ledgerRoot}
	for i, level := 0, []string{ledgerRoot}; i < hierDepth-1; i++ {
		var next []string
		for _, parent := range level {
			for f := 0; f < hierFanout; f++ {
				name := fmt.Sprintf("L%d", len(classes))
				if _, err := w.db.DefineClass(name, []string{parent}); err != nil {
					return err
				}
				classes = append(classes, name)
				next = append(next, name)
			}
		}
		level = next
	}
	r := rand.New(rand.NewSource(w.seed + 1))
	for _, cls := range classes {
		var oids []oodb.OID
		err := w.db.Do(func(tx *oodb.Tx) error {
			for i := 0; i < w.sc.hierPerClass; i++ {
				grp := r.Intn(ledgerGroups)
				oid, err := tx.Insert(cls, oodb.Attrs{"qty": oodb.Int(qtyStart), "grp": oodb.Int(int64(grp))})
				if err != nil {
					return err
				}
				oids = append(oids, oid)
				w.grpCount[grp]++
				w.grpSum += int64(grp)
			}
			return nil
		})
		if err != nil {
			return err
		}
		w.ledger = append(w.ledger, oids)
		w.nLedger += len(oids)
	}
	return nil
}

func (w *queryMVCC) step(c *clientLoop) {
	if c.id == 0 {
		w.read(c)
	} else {
		w.write(c)
	}
}

// mixQuery is query k of the mix with parameter p, and the root it
// ranges over.
func (w *queryMVCC) mixQuery(k, p int) (src, root string) {
	switch k {
	case 0:
		lo := p % (hierValRange - hierRangeW)
		return fmt.Sprintf("SELECT val FROM %s WHERE val >= %d AND val < %d", w.h.Root, lo, lo+hierRangeW), w.h.Root
	case 1:
		return fmt.Sprintf("SELECT qty FROM %s WHERE grp = %d", ledgerRoot, p%ledgerGroups), ledgerRoot
	case 2:
		return fmt.Sprintf("SELECT val FROM %s WHERE val >= %d ORDER BY val LIMIT 10", w.h.Root, p%hierValRange), w.h.Root
	default:
		return fmt.Sprintf("SELECT COUNT(*), SUM(qty), AVG(grp) FROM %s", ledgerRoot), ledgerRoot
	}
}

// checkMix checks an answer to mixQuery(k, p) against the reference.
func (w *queryMVCC) checkMix(k, p int, res *oodb.Result) error {
	ints := func() ([]int64, int64) {
		out := make([]int64, len(res.Rows))
		var sum int64
		for i, r := range res.Rows {
			out[i], _ = r.Values[0].AsInt()
			sum += out[i]
		}
		return out, sum
	}
	switch k {
	case 0:
		lo := int64(p % (hierValRange - hierRangeW))
		a := sort.Search(len(w.vals), func(i int) bool { return w.vals[i] >= lo })
		b := sort.Search(len(w.vals), func(i int) bool { return w.vals[i] >= lo+hierRangeW })
		want := sumOf(w.vals[a:b])
		if got, sum := ints(); len(got) != b-a || sum != want {
			return fmt.Errorf("range [%d,%d): %d rows sum %d, want %d rows sum %d", lo, lo+hierRangeW, len(got), sum, b-a, want)
		}
	case 1:
		if got := len(res.Rows); got != w.grpCount[p%ledgerGroups] {
			return fmt.Errorf("grp %d: %d rows, want %d", p%ledgerGroups, got, w.grpCount[p%ledgerGroups])
		}
	case 2:
		lo := int64(p % hierValRange)
		a := sort.Search(len(w.vals), func(i int) bool { return w.vals[i] >= lo })
		want := w.vals[a:min(a+10, len(w.vals))]
		got, _ := ints()
		if len(got) != len(want) {
			return fmt.Errorf("order-by from %d: %d rows, want %d", lo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("order-by from %d: row %d val %d, want %d", lo, i, got[i], want[i])
			}
		}
	default:
		if len(res.Rows) != 1 || len(res.Rows[0].Values) != 3 {
			return fmt.Errorf("aggregate: %d rows", len(res.Rows))
		}
		v := res.Rows[0].Values
		count, _ := v[0].AsInt()
		sum, _ := v[1].AsInt()
		avg, _ := v[2].AsFloat()
		wantAvg := float64(w.grpSum) / float64(w.nLedger)
		if count != int64(w.nLedger) || sum != int64(w.nLedger)*qtyStart || math.Abs(avg-wantAvg) > 1e-9*wantAvg {
			return fmt.Errorf("aggregate: COUNT %d SUM(qty) %d AVG(grp) %v, want %d %d %v",
				count, sum, avg, w.nLedger, int64(w.nLedger)*qtyStart, wantAvg)
		}
	}
	return nil
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// read runs the next query of the mix: even operations in a snapshot,
// odd ones under locks. In the traced window a locked query takes its
// class S locks with a timed Tx.LockClassScan before QueryTx, and the
// obs counters are read around each row-returning query.
func (w *queryMVCC) read(c *clientLoop) {
	m := c.n
	snapshot := m%2 == 0
	k := (m / 2) % 4
	p := c.rng.Intn(1 << 30)
	src, root := w.mixQuery(k, p)
	tr := c.tr
	var before uint64
	if tr != nil && k < 3 {
		before = counter("query_scan_rows_examined")
	}
	tr.begin(spOp)
	t0 := time.Now()
	var res *oodb.Result
	var err error
	kd := kLockedQuery
	switch {
	case snapshot:
		kd = kSnapQuery
		tr.begin(spQueryRun)
		res, err = w.db.QuerySnapshot(src)
		tr.end()
	case tr == nil:
		res, err = w.db.Query(src)
	default:
		tx := w.db.Begin()
		tr.begin(spTxnLock)
		err = tx.LockClassScan(w.scopes[root])
		tr.end()
		if err == nil {
			tr.begin(spQueryRun)
			res, err = w.db.QueryTx(tx, src)
			tr.end()
		}
		tr.begin(spCoreEnd)
		err = errors.Join(err, tx.Commit())
		tr.end()
	}
	ok := c.done(kd, t0, err)
	tr.end()
	if !ok {
		return
	}
	if cerr := w.checkMix(k, p, res); cerr != nil {
		c.mismatch("query-mvcc (snapshot=%v) %s: %v", snapshot, src, cerr)
	}
	if tr != nil && k < 3 {
		c.rowsExamined += counter("query_scan_rows_examined") - before
		c.rowsReturned += uint64(len(res.Rows))
	}
}

// write moves quantity between 8 objects of one class in one durable
// transaction: the moves sum to zero, so SUM(qty) stays constant.
func (w *queryMVCC) write(c *clientLoop) {
	oids := w.ledger[c.rng.Intn(len(w.ledger))]
	picks := c.rng.Perm(len(oids))[:moveObjs]
	deltas := make([]int64, moveObjs)
	var total int64
	for i := 0; i < moveObjs-1; i++ {
		deltas[i] = int64(c.rng.Intn(11) - 5)
		total += deltas[i]
	}
	deltas[moveObjs-1] = -total
	tr := c.tr
	tr.begin(spOp)
	defer tr.end()
	t0 := time.Now()
	tr.begin(spCoreBegin)
	tx := w.db.Begin()
	tr.end()
	err := func() error {
		for i, pi := range picks {
			tr.begin(spCoreFetch)
			obj, err := tx.Fetch(oids[pi])
			tr.end()
			if err != nil {
				return err
			}
			tr.begin(spSchemaGet)
			q, err := w.db.Get(obj, "qty")
			tr.end()
			if err != nil {
				return err
			}
			qty, _ := q.AsInt()
			tr.begin(spCoreUpdate)
			err = tx.Update(oids[pi], oodb.Attrs{"qty": oodb.Int(qty + deltas[i])})
			tr.end()
			if err != nil {
				return err
			}
		}
		tr.begin(spCoreCommit)
		err := tx.Commit()
		tr.end()
		return err
	}()
	if err != nil {
		// The failure is what gets counted; a deadlock victim is already
		// aborted, so Abort's own error adds nothing.
		_ = tx.Abort()
	}
	c.done(kCommit, t0, err)
}

// finish checks, with the writer stopped, that snapshot and locked runs of
// every query in the mix return the same rows, and that each is right.
func (w *queryMVCC) finish(c *clientLoop) {
	for k := 0; k < 4; k++ {
		for p := 0; p < 3; p++ {
			param := int(w.seed)*7919 + p*104729
			src, _ := w.mixQuery(k, param)
			t0 := time.Now()
			snap, err := w.db.QuerySnapshot(src)
			if !c.done(kSnapQuery, t0, err) {
				continue
			}
			t0 = time.Now()
			locked, err := w.db.Query(src)
			if !c.done(kLockedQuery, t0, err) {
				continue
			}
			for _, res := range []*oodb.Result{snap, locked} {
				if cerr := w.checkMix(k, param, res); cerr != nil {
					c.mismatch("quiescent %s: %v", src, cerr)
				}
			}
			if fingerprint(snap.Rows, 0) != fingerprint(locked.Rows, 0) {
				c.mismatch("quiescent %s: snapshot and locked answers differ", src)
			}
		}
	}
}

// fingerprint hashes rows by value, order-insensitively, leaving out
// each row's first skip columns.
func fingerprint(rows []query.Row, skip int) uint64 {
	enc := make([][]byte, 0, len(rows))
	for _, r := range rows {
		var b []byte
		for _, v := range r.Values[skip:] {
			b = model.AppendValue(b, v)
		}
		enc = append(enc, b)
	}
	sort.Slice(enc, func(a, b int) bool { return bytes.Compare(enc[a], enc[b]) < 0 })
	h := fnv.New64a()
	for _, b := range enc {
		_, _ = h.Write(b)
		_, _ = h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func (w *queryMVCC) close() error {
	if w.db == nil {
		return nil
	}
	return w.db.Close()
}
