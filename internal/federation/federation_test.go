package federation

import (
	"errors"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/relational"
	"oodb/internal/schema"
)

// mixed builds the paper's §5.2 scenario: an Employee database in a
// relational system and a Company database in an object-oriented system,
// presented to the user under the common OO model.
func mixed(t *testing.T) *Federation {
	t.Helper()
	// Relational member: employees with a department foreign key.
	rdb := relational.NewDB()
	dept, _ := rdb.Create("Department", "id", "name", "city")
	emp, _ := rdb.Create("Employee", "id", "name", "dept", "salary")
	dept.Insert(model.String("d1"), model.String("Engineering"), model.String("Austin"))
	dept.Insert(model.String("d2"), model.String("Sales"), model.String("Detroit"))
	emp.Insert(model.String("e1"), model.String("alice"), model.String("d1"), model.Int(120))
	emp.Insert(model.String("e2"), model.String("bob"), model.String("d2"), model.Int(90))
	emp.Insert(model.String("e3"), model.String("carol"), model.String("d1"), model.Int(130))
	rs := NewRelSource(rdb)
	if err := rs.Export("Employee"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Export("Department"); err != nil {
		t.Fatal(err)
	}
	if err := rs.DeclareFK("Employee", "dept", FK{Relation: "Department", KeyCol: "id"}); err != nil {
		t.Fatal(err)
	}

	// Object member: companies with a hierarchy.
	odb, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { odb.Close() })
	company, _ := odb.DefineClass("Company", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "location", Domain: schema.ClassString})
	odb.DefineClass("AutoCompany", []model.ClassID{company.ID})
	odb.Do(func(tx *core.Tx) error {
		tx.Insert("AutoCompany", map[string]model.Value{
			"name": model.String("GM"), "location": model.String("Detroit")})
		tx.Insert("Company", map[string]model.Value{
			"name": model.String("MCC"), "location": model.String("Austin")})
		return nil
	})

	f := New()
	f.Register("hr", rs)
	f.Register("corp", NewOOSource(odb))
	return f
}

func TestSourcesListed(t *testing.T) {
	f := mixed(t)
	got := f.Sources()
	if len(got) != 2 || got[0] != "corp" || got[1] != "hr" {
		t.Fatalf("Sources = %v", got)
	}
}

func TestQueryRelationalMember(t *testing.T) {
	f := mixed(t)
	res, err := f.Query("hr", `SELECT name, salary FROM Employee WHERE salary > 100 ORDER BY salary DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "carol" {
		t.Errorf("first = %v", res.Rows[0].Values)
	}
}

func TestForeignKeyAsAggregation(t *testing.T) {
	// The relational FK is traversed like an OO nested attribute: the
	// same path syntax works on both members.
	f := mixed(t)
	res, err := f.Query("hr", `SELECT name, dept.city FROM Employee WHERE dept.name = 'Engineering'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // alice and carol
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if city, _ := row.Values[1].AsString(); city != "Austin" {
			t.Errorf("city = %v", row.Values[1])
		}
	}
}

func TestQueryObjectMember(t *testing.T) {
	f := mixed(t)
	res, err := f.Query("corp", `SELECT name FROM Company WHERE location = 'Detroit'`)
	if err != nil {
		t.Fatal(err)
	}
	// Hierarchy scope: GM is an AutoCompany but appears under Company.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if s, _ := res.Rows[0].Values[0].AsString(); s != "GM" {
		t.Errorf("name = %v", res.Rows[0].Values[0])
	}
}

func TestSameQueryTextBothMembers(t *testing.T) {
	// The single-common-model illusion: identical query text runs against
	// either member (both export a name attribute).
	f := mixed(t)
	const q = `SELECT name FROM %s ORDER BY name LIMIT 1`
	r1, err := f.Query("hr", `SELECT name FROM Employee ORDER BY name LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Query("corp", `SELECT name FROM Company ORDER BY name LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := r1.Rows[0].Values[0].AsString(); s != "alice" {
		t.Errorf("hr first = %v", r1.Rows[0].Values[0])
	}
	if s, _ := r2.Rows[0].Values[0].AsString(); s != "GM" {
		t.Errorf("corp first = %v", r2.Rows[0].Values[0])
	}
	_ = q
}

func TestErrors(t *testing.T) {
	f := mixed(t)
	if _, err := f.Query("nope", `SELECT * FROM X`); !errors.Is(err, ErrNoSource) {
		t.Errorf("expected ErrNoSource, got %v", err)
	}
	if _, err := f.Query("hr", `SELECT * FROM Nowhere`); !errors.Is(err, ErrNoClass) {
		t.Errorf("expected ErrNoClass, got %v", err)
	}
	if _, err := f.Query("hr", `garbage`); err == nil {
		t.Error("unparseable query accepted")
	}
	// Unexported relation invisible even though it exists.
	rs := NewRelSource(relational.NewDB())
	if err := rs.Export("ghost"); err == nil {
		t.Error("export of missing relation accepted")
	}
}

func TestDanglingFKIsNull(t *testing.T) {
	rdb := relational.NewDB()
	rdb.Create("Department", "id", "name")
	emp, _ := rdb.Create("Employee", "id", "dept")
	emp.Insert(model.String("e1"), model.String("dX")) // no such dept
	rs := NewRelSource(rdb)
	rs.Export("Employee")
	rs.DeclareFK("Employee", "dept", FK{Relation: "Department", KeyCol: "id"})
	f := New()
	f.Register("hr", rs)
	res, err := f.Query("hr", `SELECT id FROM Employee WHERE dept.name = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("dangling FK matched a predicate")
	}
	// Null mid-path projects as null without error.
	res, err = f.Query("hr", `SELECT dept.name FROM Employee`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0].Values[0].IsNull() {
		t.Fatalf("dangling projection = %v", res.Rows[0].Values[0])
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	f := mixed(t)
	res, err := f.Query("hr", `SELECT id FROM Employee LIMIT 2`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows = %d, %v", len(res.Rows), err)
	}
}

func TestOOSourceNestedPaths(t *testing.T) {
	// ooEntity.Get: nested dereference, null mid-path, default values,
	// unknown attribute.
	dir := t.TempDir()
	odb, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	dept, _ := odb.DefineClass("Dept", nil,
		schema.AttrSpec{Name: "city", Domain: schema.ClassString})
	emp, _ := odb.DefineClass("Emp", nil,
		schema.AttrSpec{Name: "name", Domain: schema.ClassString},
		schema.AttrSpec{Name: "dept", Domain: dept.ID},
		schema.AttrSpec{Name: "grade", Domain: schema.ClassString, Default: model.String("junior")})
	odb.Do(func(tx *core.Tx) error {
		d, _ := tx.InsertClass(dept.ID, map[string]model.Value{"city": model.String("Austin")})
		tx.InsertClass(emp.ID, map[string]model.Value{
			"name": model.String("alice"), "dept": model.Ref(d)})
		tx.InsertClass(emp.ID, map[string]model.Value{"name": model.String("bob")}) // no dept
		return nil
	})
	f := New()
	f.Register("oo", NewOOSource(odb))

	// Nested path through the reference.
	res, err := f.Query("oo", `SELECT name FROM Emp WHERE dept.city = 'Austin'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("nested rows = %d, %v", len(res.Rows), err)
	}
	// Default value readable through the common model.
	res, err = f.Query("oo", `SELECT name FROM Emp WHERE grade = 'junior' ORDER BY name`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("default rows = %d, %v", len(res.Rows), err)
	}
	// An entity row still dereferences after its query's snapshot ended.
	res, err = f.Query("oo", `SELECT * FROM Emp WHERE name = 'alice'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("entity rows = %d, %v", len(res.Rows), err)
	}
	if v, ok := res.Rows[0].Entity.Get([]string{"dept", "city"}); !ok || !model.Equal(v, model.String("Austin")) {
		t.Fatalf("entity dept.city = %v, %v", v, ok)
	}
	// Null mid-path is null, not an error.
	res, err = f.Query("oo", `SELECT dept.city FROM Emp WHERE name = 'bob'`)
	if err != nil || !res.Rows[0].Values[0].IsNull() {
		t.Fatalf("null mid-path = %v, %v", res.Rows[0].Values, err)
	}
	// Unknown attribute: false/null, no error (lenient heterogeneity).
	res, err = f.Query("oo", `SELECT * FROM Emp WHERE mystery = 1`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("unknown attr rows = %d, %v", len(res.Rows), err)
	}
	// Aggregates rejected in federation.
	if _, err := f.Query("oo", `SELECT COUNT(*) FROM Emp`); err == nil {
		t.Fatal("federated aggregate accepted")
	}
}
