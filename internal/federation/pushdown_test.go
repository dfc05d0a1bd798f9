package federation

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/schema"
)

// scanOnly hides the QueryableSource extension of a source, forcing the
// federation through the per-entity Scan + evaluator path.
type scanOnly struct{ Source }

// encodeRows renders a federated result into the engine's canonical value
// encoding, row by row, so two results can be compared byte-identically.
func encodeRows(res *Result) []byte {
	var buf []byte
	for _, row := range res.Rows {
		for _, v := range row.Values {
			buf = model.AppendValue(buf, v)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// TestPushdownDifferential pins the QueryableSource contract: for every
// eligible query shape, the pushed-down result is byte-identical to the
// Scan+evaluator path over the same data.
func TestPushdownDifferential(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	dept, _ := odb.DefineClass("Dept", nil,
		schema.AttrSpec{Name: "city", Domain: schema.ClassString},
		schema.AttrSpec{Name: "label", Domain: schema.ClassString})
	emp, _ := odb.DefineClass("Emp", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "salary", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "dept", Domain: dept.ID},
		schema.AttrSpec{Name: "grade", Domain: schema.ClassString, Default: model.String("junior")},
		schema.AttrSpec{Name: "tags", Domain: schema.ClassString, SetValued: true},
		schema.AttrSpec{Name: "links", Domain: dept.ID, SetValued: true},
		schema.AttrSpec{Name: "score", Domain: schema.ClassFloat})
	odb.DefineClass("Manager", []model.ClassID{emp.ID},
		schema.AttrSpec{Name: "reports", Domain: schema.ClassInteger})

	tx := odb.Begin()
	cities := []string{"Austin", "Detroit", "Paris"}
	labels := []string{"x", "y", "y"}
	var depts []model.OID
	for i, c := range cities {
		d, err := tx.InsertClass(dept.ID, map[string]model.Value{
			"city": model.String(c), "label": model.String(labels[i])})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, d)
	}
	// gone is deleted after the load: references to it dangle.
	gone, err := tx.InsertClass(dept.ID, map[string]model.Value{"city": model.String("Gone")})
	if err != nil {
		t.Fatal(err)
	}
	// The set-valued value domain: two members, one, the empty set, and
	// no value at all.
	tagSets := []model.Value{
		model.Set(model.String("red"), model.String("blue")),
		model.Set(model.String("red")),
		model.Set(),
		model.Null,
		model.Set(model.String("green")),
	}
	linkSets := []model.Value{
		model.Set(model.Ref(depts[0]), model.Ref(depts[1])), // labels x, y
		model.Set(model.Ref(depts[1]), model.Ref(depts[2])), // y twice: one value
		model.Null,
		model.Set(model.Ref(gone), model.Ref(depts[2])), // one dangling member
		model.Set(model.Ref(gone)),
		model.Set(),
	}
	for i := 0; i < 40; i++ {
		attrs := map[string]model.Value{
			"name":   model.String(fmt.Sprintf("e%02d", i)),
			"salary": model.Int(int64(50 + i*7%100)),
			"score":  model.Float(float64(i) / 4),
		}
		switch {
		case i%7 == 6: // dangling reference mid-path
			attrs["dept"] = model.Ref(gone)
		case i%5 != 0: // a few employees have no dept (null mid-path)
			attrs["dept"] = model.Ref(depts[i%len(depts)])
		}
		if v := tagSets[i%len(tagSets)]; !v.IsNull() {
			attrs["tags"] = v
		}
		if v := linkSets[i%len(linkSets)]; !v.IsNull() {
			attrs["links"] = v
		}
		if i%3 == 0 {
			attrs["grade"] = model.String("senior")
		}
		class := "Emp"
		if i%4 == 0 {
			class = "Manager"
			attrs["reports"] = model.Int(int64(i))
		}
		if _, err := tx.Insert(class, attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := odb.Do(func(tx *core.Tx) error { return tx.Delete(gone) }); err != nil {
		t.Fatal(err)
	}

	src := NewOOSource(odb)
	pushed := New()
	pushed.Register("oo", src)
	scanned := New()
	scanned.Register("oo", scanOnly{src})

	queries := []string{
		// Plain projection + predicate.
		`SELECT name, salary FROM Emp WHERE salary > 80 ORDER BY name`,
		// Nested path through a reference, null mid-path included.
		`SELECT name, dept.city FROM Emp WHERE dept.city = 'Austin' ORDER BY name`,
		// Default values visible through both paths.
		`SELECT name FROM Emp WHERE grade = 'junior' ORDER BY name`,
		// Hierarchy scope: Managers appear under Emp on both paths.
		`SELECT name FROM Emp WHERE salary >= 50 ORDER BY name DESC`,
		// LIMIT after ORDER BY.
		`SELECT name, salary FROM Emp ORDER BY name LIMIT 7`,
		// Compound predicate.
		`SELECT name FROM Emp WHERE salary > 60 AND grade = 'senior' ORDER BY name`,
		// Set-valued attributes compare existentially; a one-member set
		// is its member and the empty set is null.
		`SELECT name, tags FROM Emp WHERE tags = 'red' ORDER BY name`,
		`SELECT name FROM Emp WHERE tags != 'red' ORDER BY name`,
		`SELECT name FROM Emp WHERE tags IN ('blue') ORDER BY name`,
		`SELECT name FROM Emp WHERE tags = null ORDER BY name`,
		`SELECT name FROM Emp WHERE tags CONTAINS 'red' ORDER BY name`,
		`SELECT name FROM Emp WHERE NOT tags CONTAINS null ORDER BY name`,
		`SELECT name FROM Emp WHERE tags CONTAINS tags ORDER BY name`,
		`SELECT name, tags FROM Emp ORDER BY tags DESC`,
		// A path fans out through a set of references; dangling members
		// dead-end.
		`SELECT name, links.label FROM Emp WHERE links.label = 'y' ORDER BY name`,
		`SELECT name, tags, links.label, links.city, dept.city FROM Emp ORDER BY name`,
		`SELECT name FROM Emp WHERE dept.city = null ORDER BY name`,
		// Int and Float compare numerically, both ways round.
		`SELECT name, score FROM Emp WHERE score > 3 AND salary < 90.5 ORDER BY score DESC`,
		`SELECT name FROM Emp WHERE salary = 57.0 OR score <= 1 ORDER BY name`,
	}
	for _, qsrc := range queries {
		q, err := query.Parse(qsrc)
		if err != nil {
			t.Fatal(err)
		}
		if _, handled, err := src.RunQuery(q); err != nil || !handled {
			t.Fatalf("%q: the engine declined the pushdown (%v): the comparison would prove nothing", qsrc, err)
		}
		rp, err := pushed.Query("oo", qsrc)
		if err != nil {
			t.Fatalf("pushdown %q: %v", qsrc, err)
		}
		rs, err := scanned.Query("oo", qsrc)
		if err != nil {
			t.Fatalf("scan %q: %v", qsrc, err)
		}
		if len(rp.Cols) != len(rs.Cols) {
			t.Fatalf("%q: cols %v vs %v", qsrc, rp.Cols, rs.Cols)
		}
		for i := range rp.Cols {
			if rp.Cols[i] != rs.Cols[i] {
				t.Fatalf("%q: cols %v vs %v", qsrc, rp.Cols, rs.Cols)
			}
		}
		bp, bs := encodeRows(rp), encodeRows(rs)
		if !bytes.Equal(bp, bs) {
			t.Fatalf("%q: pushdown result differs from evaluator path\npushdown: %d rows\nscan:     %d rows",
				qsrc, len(rp.Rows), len(rs.Rows))
		}
		if len(rp.Rows) == 0 {
			t.Fatalf("%q: empty result proves nothing", qsrc)
		}
	}
}

// TestPushdownDecline pins the fallback: queries the engine would reject
// (unknown attribute) still succeed through the lenient evaluator path,
// so the pushdown is never a semantic fork.
func TestPushdownDecline(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	cl, _ := odb.DefineClass("Thing", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger})
	tx := odb.Begin()
	if _, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	f := New()
	f.Register("oo", NewOOSource(odb))
	// The engine errors on the unknown attribute; the federation must
	// fall back to the lenient path (0 rows, no error).
	res, err := f.Query("oo", `SELECT n FROM Thing WHERE mystery = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Entity-shaped results (no projection) never push down.
	res, err = f.Query("oo", `SELECT * FROM Thing`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "entity" || len(res.Rows) != 1 || res.Rows[0].Entity == nil {
		t.Fatalf("entity result = %+v", res)
	}
}

// TestFederationReadsCommittedSnapshot pins both federation paths to
// committed data: while a writer's updates are still open, the pushdown
// and the Scan fallback, path dereferences included, return the committed
// values and do not wait for the writer's locks.
func TestFederationReadsCommittedSnapshot(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	person, _ := odb.DefineClass("Person", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString})
	odb.DefineClass("Acct", nil,
		schema.AttrSpec{Name: "bal", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "owner", Domain: person.ID})
	var acct, owner model.OID
	err = odb.Do(func(tx *core.Tx) error {
		var err error
		if owner, err = tx.Insert("Person", map[string]model.Value{"name": model.String("ann")}); err != nil {
			return err
		}
		acct, err = tx.Insert("Acct", map[string]model.Value{"bal": model.Int(100), "owner": model.Ref(owner)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	w := odb.Begin()
	defer w.Abort()
	if err := w.Update(acct, map[string]model.Value{"bal": model.Int(999)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(owner, map[string]model.Value{"name": model.String("bob")}); err != nil {
		t.Fatal(err)
	}

	src := NewOOSource(odb)
	const qsrc = `SELECT bal, owner.name FROM Acct`
	q, err := query.Parse(qsrc)
	if err != nil {
		t.Fatal(err)
	}
	fallback := New()
	fallback.Register("oo", scanOnly{src})
	paths := map[string]func() (*Result, error){
		"pushdown": func() (*Result, error) {
			res, handled, err := src.RunQuery(q)
			if err == nil && !handled {
				err = errors.New("the engine declined the pushdown")
			}
			return res, err
		},
		"fallback": func() (*Result, error) { return fallback.Query("oo", qsrc) },
	}
	for name, run := range paths {
		var res *Result
		done := make(chan error, 1)
		go func() {
			var err error
			res, err = run()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: blocked on the open writer", name)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows", name, len(res.Rows))
		}
		vals := res.Rows[0].Values
		if n, _ := vals[0].AsInt(); n != 100 {
			t.Errorf("%s: bal = %v, want the committed 100", name, vals[0])
		}
		if s, _ := vals[1].AsString(); s != "ann" {
			t.Errorf("%s: owner.name = %v, want the committed \"ann\"", name, vals[1])
		}
	}
}

// TestPushdownIndexProbeBesideWriter runs pushed-down range queries that
// probe an index while another session rewrites the indexed attribute of
// covered objects. The pushdown reads at a snapshot and takes no class
// lock, so only the index's own latch keeps the probe off a tree the
// writer is splitting; run under -race it reports any unlatched access.
func TestPushdownIndexProbeBesideWriter(t *testing.T) {
	odb, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	part, _ := odb.DefineClass("Part", nil,
		schema.AttrSpec{Name: "w", Domain: schema.ClassInteger})
	odb.DefineClass("Bolt", []model.ClassID{part.ID})
	if err := odb.CreateIndex("pw", part.ID, []string{"w"}, true); err != nil {
		t.Fatal(err)
	}
	const n = 400
	var oids []model.OID
	err = odb.Do(func(tx *core.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.Insert("Bolt", map[string]model.Value{"w": model.Int(int64(i))})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(`SELECT w FROM Part WHERE w >= 100 AND w < 300`)
	if err != nil {
		t.Fatal(err)
	}
	src := NewOOSource(odb)

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			err := odb.Do(func(tx *core.Tx) error {
				for j := 0; j < 8; j++ {
					oid := oids[(i*8+j)%n]
					if err := tx.Update(oid, map[string]model.Value{"w": model.Int(int64(n + i*8 + j))}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				writerErr <- err
				return
			}
		}
	}()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		res, handled, err := src.RunQuery(q)
		if err != nil || !handled {
			close(stop)
			<-writerErr
			t.Fatalf("pushdown: handled=%v, %v", handled, err)
		}
		for _, row := range res.Rows {
			if w, _ := row.Values[0].AsInt(); w < 100 || w >= 300 {
				close(stop)
				<-writerErr
				t.Fatalf("row w = %d outside the probed range", w)
			}
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
}
