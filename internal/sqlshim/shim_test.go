package sqlshim

import (
	"database/sql"
	"strings"
	"testing"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

func mustExec(t *testing.T, db *DB, q string, args ...xdm.Value) *Result {
	t.Helper()
	res, err := db.Exec(q, args...)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return res
}

func newPeople(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE people (id INTEGER, name VARCHAR, age INTEGER, PRIMARY KEY (id))")
	mustExec(t, db, "INSERT INTO people VALUES (1, 'ann', 30), (2, 'bob', 25), (3, 'o''hara', 41)")
	return db
}

func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				parts[j] = "∅"
			} else {
				parts[j] = v.Lexical()
			}
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

func wantRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowStrings(res)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestCRUDAndParams(t *testing.T) {
	db := newPeople(t)
	mustExec(t, db, "INSERT INTO people (name, id, age) VALUES (?, ?, ?)",
		xdm.Str("dee"), xdm.Int(4), xdm.Int(19))
	res := mustExec(t, db, "SELECT name FROM people WHERE age > ? ORDER BY name", xdm.Int(20))
	wantRows(t, res, "ann", "bob", "o'hara")
	mustExec(t, db, "DELETE FROM people WHERE age < 30")
	if res := mustExec(t, db, "SELECT id FROM people ORDER BY id"); len(res.Rows) != 2 {
		t.Fatalf("after delete: %v", rowStrings(res))
	}
	// Quote escaping survives the round trip.
	res = mustExec(t, db, "SELECT name FROM people WHERE name = 'o''hara'")
	wantRows(t, res, "o'hara")
}

func TestQuotedIdentifiers(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE "order" ("group" INTEGER)`)
	mustExec(t, db, `INSERT INTO "order" VALUES (1)`)
	res := mustExec(t, db, `SELECT "group" FROM "order"`)
	wantRows(t, res, "1")
}

func TestJoinsAndNotExists(t *testing.T) {
	db := newPeople(t)
	mustExec(t, db, "CREATE TABLE pets (owner INTEGER, pet VARCHAR)")
	mustExec(t, db, "INSERT INTO pets VALUES (1, 'cat'), (1, 'dog'), (3, 'fox')")
	res := mustExec(t, db, `
		SELECT p.name AS name, q.pet AS pet FROM people AS p, pets AS q
		WHERE p.id = q.owner ORDER BY name, pet`)
	wantRows(t, res, "ann,cat", "ann,dog", "o'hara,fox")
	// LEFT JOIN pads the pet column with NULL.
	res = mustExec(t, db, `
		SELECT p.name AS name, q.pet AS pet
		FROM people AS p LEFT JOIN pets AS q ON p.id = q.owner
		ORDER BY name, pet`)
	wantRows(t, res, "ann,cat", "ann,dog", "bob,∅", "o'hara,fox")
	// NOT EXISTS anti-join (the renderer's pruning idiom).
	res = mustExec(t, db, `
		SELECT p.name FROM people AS p
		WHERE NOT EXISTS (SELECT 1 FROM pets AS q WHERE q.owner = p.id)`)
	wantRows(t, res, "bob")
}

func TestBagDifferenceIdiom(t *testing.T) {
	// The B_old rendering: ROW_NUMBER-tagged EXCEPT emulates EXCEPT ALL.
	db := NewDB()
	mustExec(t, db, "CREATE TABLE b (x INTEGER)")
	mustExec(t, db, "CREATE TABLE d (x INTEGER)")
	mustExec(t, db, "INSERT INTO b VALUES (7), (7), (8)")
	mustExec(t, db, "INSERT INTO d VALUES (7)")
	res := mustExec(t, db, `
		SELECT x FROM (
			SELECT x, ROW_NUMBER() OVER (PARTITION BY x) AS occ_ FROM b
			EXCEPT
			SELECT x, ROW_NUMBER() OVER (PARTITION BY x) AS occ_ FROM d
		) ORDER BY x`)
	wantRows(t, res, "7", "8")
	// Plain EXCEPT is set-semantics: both 7s vanish.
	res = mustExec(t, db, "SELECT x FROM b EXCEPT SELECT x FROM d")
	wantRows(t, res, "8")
	// UNION dedups, UNION ALL does not.
	res = mustExec(t, db, "SELECT x FROM b UNION SELECT x FROM d")
	if len(res.Rows) != 2 {
		t.Fatalf("UNION: %v", rowStrings(res))
	}
	res = mustExec(t, db, "SELECT x FROM b UNION ALL SELECT x FROM d")
	if len(res.Rows) != 4 {
		t.Fatalf("UNION ALL: %v", rowStrings(res))
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	db := newPeople(t)
	mustExec(t, db, "INSERT INTO people VALUES (4, 'ann', 50)")
	res := mustExec(t, db, `
		SELECT name, COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age)
		FROM people GROUP BY name ORDER BY name`)
	wantRows(t, res,
		"ann,2,80,30,50,40.00",
		"bob,1,25,25,25,25.00",
		"o'hara,1,41,41,41,41.00")
	// Global aggregate over an empty input yields one row (COUNT = 0).
	res = mustExec(t, db, "SELECT COUNT(*) FROM people WHERE age > 1000")
	wantRows(t, res, "0")
}

func TestThreeValuedLogic(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, NULL), (NULL, NULL), (1, 1)")
	// NULL comparisons are unknown; WHERE keeps only TRUE.
	res := mustExec(t, db, "SELECT a, b FROM t WHERE a = 1 AND b = 1")
	wantRows(t, res, "1,1")
	// IS NULL / IS NOT NULL see through unknowns.
	res = mustExec(t, db, "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL")
	wantRows(t, res, "1")
	// NULL join keys never match (hash and nested-loop paths alike).
	mustExec(t, db, "CREATE TABLE u (a INTEGER)")
	mustExec(t, db, "INSERT INTO u VALUES (NULL), (1)")
	res = mustExec(t, db, "SELECT COUNT(*) FROM t, u WHERE t.a = u.a")
	wantRows(t, res, "2")
}

func TestXMLFunctionsAndPathStep(t *testing.T) {
	db := NewDB()
	res := mustExec(t, db,
		"SELECT xml_string(xml_element('v', xml_attr('p', 9), xml_element('w', 3)))")
	if got := res.Rows[0][0].AsString(); got != `<v p="9"><w>3</w></v>` {
		t.Fatalf("xml_element = %s", got)
	}
	// path_step child axis with a predicate over ITEM.
	mustExec(t, db, "CREATE TABLE n (doc VARCHAR)")
	mustExec(t, db, "INSERT INTO n VALUES ('<a><b>1</b><b>5</b></a>')")
	res = mustExec(t, db,
		"SELECT seq_count(path_step(xml_parse(doc), 'child', 'b')) FROM n")
	wantRows(t, res, "2")
	res = mustExec(t, db,
		"SELECT xml_data(path_step(xml_parse(doc), 'child', 'b', xml_data(ITEM) > 2)) FROM n")
	wantRows(t, res, "5")
}

// TestWrongArityIsAnError: SQL text comes from any database/sql caller, so
// a call with the wrong number of arguments must fail the statement, not
// index past the argument list.
func TestWrongArityIsAnError(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	for _, q := range []string{
		"SELECT xml_data()",
		"SELECT deep_equal(1)",
		"SELECT xml_attr('a')",
		"SELECT seq_count()",
		"SELECT xml_element()",
		"SELECT abs()",
		"SELECT abs(1, 2)",
		"SELECT xml_parse()",
		"SELECT path_step(1)",
		"SELECT sum()",
		"SELECT sum() FROM t",
		"SELECT sum(*) FROM t",
		"SELECT min(a, a) FROM t",
		"SELECT AGGXMLFRAG() FROM t",
	} {
		_, err := db.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "wrong number of arguments") {
			t.Errorf("%s: err = %v, want a wrong-number-of-arguments error", q, err)
		}
	}
}

// TestEveryEvaluatorFunctionHasAUDF: every function in the evaluator's
// kernel table executes under the SQL name the renderer emits for it and
// gives the evaluator's result, so a kernel added to the evaluator without
// a backend mapping fails here.
func TestEveryEvaluatorFunctionHasAUDF(t *testing.T) {
	db := NewDB()
	for _, f := range xqgm.Funcs() {
		if f.SQL == "" {
			t.Errorf("evaluator function %s has no SQL name", f.Name)
			continue
		}
		args := make([]xdm.Value, max(f.MinArgs, 1))
		for i := range args {
			args[i] = xdm.Int(1)
		}
		q := "SELECT " + f.SQL + "(" + strings.TrimSuffix(strings.Repeat("1, ", len(args)), ", ") + ")"
		res, err := db.Exec(q)
		if err != nil {
			t.Errorf("%s (evaluator %s): %v", q, f.Name, err)
			continue
		}
		want, err := xqgm.CallFunc(f.Name, args)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; !xdm.Equal(got, want) {
			t.Errorf("%s = %v, evaluator %s gives %v", q, got, f.Name, want)
		}
	}
}

func TestAggXMLFragOrdered(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v VARCHAR)")
	mustExec(t, db, "INSERT INTO t VALUES (2, 'b'), (1, 'a'), (3, 'c')")
	res := mustExec(t, db,
		"SELECT xml_string(xml_element('r', AGGXMLFRAG(xml_element('i', v) ORDER BY k))) FROM t")
	if got := res.Rows[0][0].AsString(); got != "<r><i>a</i><i>b</i><i>c</i></r>" {
		t.Fatalf("ordered frag = %s", got)
	}
}

func TestExplainIsDataIndependent(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	q := `EXPLAIN QUERY PLAN WITH c(a) AS (SELECT a FROM t WHERE b = 1)
		SELECT t.a FROM t JOIN c ON t.a = c.a GROUP BY t.a`
	before := strings.Join(rowStrings(mustExec(t, db, q)), "\n")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 2)")
	after := strings.Join(rowStrings(mustExec(t, db, q)), "\n")
	if before != after {
		t.Fatalf("plan changed with data:\n%s\nvs\n%s", before, after)
	}
	if !strings.Contains(before, "HASH JOIN") || !strings.Contains(before, "AGGREGATE") {
		t.Fatalf("plan misses expected steps:\n%s", before)
	}
}

func TestDatabaseSQLDriver(t *testing.T) {
	sdb, err := sql.Open("sqlshim", "driver-test")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		Detach("driver-test")
		sdb.Close()
	}()
	if _, err := sdb.Exec("CREATE TABLE kv (k VARCHAR, v DECIMAL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Exec("INSERT INTO kv VALUES (?, ?)", "pi", 3.5); err != nil {
		t.Fatal(err)
	}
	rows, err := sdb.Query("SELECT k, v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var k string
	var v float64
	if err := rows.Scan(&k, &v); err != nil {
		t.Fatal(err)
	}
	if k != "pi" || v != 3.5 {
		t.Fatalf("got %s=%v", k, v)
	}
}
