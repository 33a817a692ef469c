package core

import (
	"strings"
	"testing"

	"quark/internal/reldb"
	"quark/internal/relsql"
	"quark/internal/schema"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// TestRenderedSQLExecutesOnShim drives the paper's catalog triggers in every
// translated mode with the shadow attached: each firing's rendered SQL must
// parse, execute, and reproduce the evaluator's result multiset on real
// INSERTED_/DELETED_ tables — per statement and per batched commit.
func TestRenderedSQLExecutesOnShim(t *testing.T) {
	for _, mode := range []Mode{ModeUngrouped, ModeGrouped, ModeGroupedAgg} {
		t.Run(mode.String(), func(t *testing.T) {
			e, log := newCatalogEngine(t, mode)
			for _, src := range []string{
				`CREATE TRIGGER Notify AFTER UPDATE ON view('catalog')/product
				 WHERE OLD_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER Cheap AFTER UPDATE ON view('catalog')/product
				 WHERE count(NEW_NODE/vendor[./price < 110]) >= 1 DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER NewProd AFTER INSERT ON view('catalog')/product DO notifySmith(NEW_NODE)`,
				`CREATE TRIGGER GoneProd AFTER DELETE ON view('catalog')/product DO notifySmith(OLD_NODE)`,
			} {
				if err := e.CreateTrigger(src); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			sh, err := relsql.NewShadow(e.db)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			e.SetPlanShadow(sh)

			if _, err := e.UpdateByPK("vendor", []xdm.Value{xdm.Str("Amazon"), xdm.Str("P1")}, func(r reldb.Row) reldb.Row {
				r[2] = xdm.Float(75)
				return r
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("vendor", reldb.Row{xdm.Str("Newegg"), xdm.Str("P2"), xdm.Float(210)}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Delete("vendor", func(r reldb.Row) bool {
				return r[0].AsString() == "Circuitcity"
			}); err != nil {
				t.Fatal(err)
			}
			// Batched commit: multi-statement transaction exercises the
			// batch-fallback plan (batchSQL) where one exists.
			if err := e.Batch(func(tx *reldb.Tx) error {
				if err := tx.Insert("product", reldb.Row{xdm.Str("P4"), xdm.Str("OLED 27"), xdm.Str("LG")}); err != nil {
					return err
				}
				return tx.Insert("vendor",
					reldb.Row{xdm.Str("Amazon"), xdm.Str("P4"), xdm.Float(300)},
					reldb.Row{xdm.Str("Bestbuy"), xdm.Str("P4"), xdm.Float(310)})
			}); err != nil {
				t.Fatal(err)
			}

			if sh.Verified() == 0 {
				t.Fatal("shadow verified no plan evaluations")
			}
			if len(*log) == 0 {
				t.Fatal("triggers delivered no notifications")
			}
			t.Logf("mode %s: %d plan evaluations verified on the SQL backend", mode, sh.Verified())
		})
	}
}

// TestOldTableBagSemanticsSQL is the duplicate-row regression for the B_old
// rendering fix: on a keyless table holding two identical rows with one of
// them freshly inserted, B_old = (B EXCEPT ALL Δ) UNION ALL ∇ keeps exactly
// one copy. The old set-based EXCEPT rendering annihilates both copies —
// the bug this PR fixes — and the in-memory evaluator must agree with the
// fixed SQL.
func TestOldTableBagSemanticsSQL(t *testing.T) {
	def := &schema.Table{
		Name:    "b",
		Columns: []schema.Column{{Name: "x", Type: schema.TInt}},
	}
	s := schema.New()
	s.MustAddTable(def)
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	// Post-statement state: two identical rows, one of them just inserted.
	if err := db.Insert("b", reldb.Row{xdm.Int(7)}, reldb.Row{xdm.Int(7)}); err != nil {
		t.Fatal(err)
	}
	deltas := map[string]*xqgm.Transition{
		"b": {Inserted: []reldb.Row{{xdm.Int(7)}}},
	}

	// Evaluator: B_old must hold exactly one copy of the row.
	root := xqgm.NewTable(def, xqgm.SrcOld)
	rows, err := xqgm.NewEvalContext(db, deltas).Eval(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 7 {
		t.Fatalf("evaluator B_old = %v, want exactly one row (7)", rows)
	}

	// Rendered SQL on the relsql mirror of the same state must agree with
	// the evaluator row for row.
	sh, err := relsql.NewShadow(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sqlText := RenderSQL(root)
	if err := sh.VerifyPlan("b", sqlText, deltas, rows); err != nil {
		t.Fatalf("rendered B_old SQL: %v\n%s", err, sqlText)
	}

	// The pre-fix rendering used set-semantics EXCEPT: both copies vanish,
	// silently under-reporting the old state. Executing that shape shows
	// why the ROW_NUMBER bag-difference emulation is required.
	legacy := "SELECT x FROM b EXCEPT SELECT x FROM INSERTED_b UNION ALL SELECT x FROM DELETED_b"
	if err := sh.VerifyPlan("b", legacy, deltas, rows); err == nil || !strings.Contains(err.Error(), "SQL rows: 0") {
		t.Fatalf("legacy set-based EXCEPT: shadow said %v; expected it to (wrongly) drop every copy — regression fixture is stale", err)
	}
}
