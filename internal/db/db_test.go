package db

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skybridge/internal/blockdev"
	"skybridge/internal/fs"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// dbWorld runs body with an open database over a local (Baseline) FS and
// block device in one process.
func dbWorld(t *testing.T, body func(env *mk.Env, d *DB)) {
	t.Helper()
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("dbworld")
	dev := blockdev.New(p, 4096)
	f := fs.NewFS(p, svc.NewLocal(dev.Handler()), fs.Config{})
	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, 4096, 64); err != nil {
			t.Errorf("mkfs: %v", err)
			return
		}
		fsc := &fs.Client{Conn: svc.NewLocal(f.Handler())}
		d, err := Open(env, p, fsc, "test.db")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		body(env, d)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, env *mk.Env, d *DB, sql string) *Rows {
	t.Helper()
	r, err := d.Exec(env, sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

func TestRecordCodecRoundTrip(t *testing.T) {
	cases := [][]Value{
		{IntValue(42)},
		{TextValue("hello")},
		{NullValue},
		{IntValue(-7), TextValue("mixed"), NullValue, IntValue(1 << 40)},
		{TextValue(""), TextValue(string(make([]byte, 1000)))},
	}
	for _, vals := range cases {
		rec := EncodeRecord(vals)
		got, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("%v: got %v", vals, got)
		}
		for i := range vals {
			if got[i].Kind != vals[i].Kind || got[i].Int != vals[i].Int || got[i].Text != vals[i].Text {
				t.Fatalf("%v round-tripped to %v", vals, got)
			}
		}
	}
}

func TestSQLBasics(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)")
		mustExec(t, env, d, "INSERT INTO users VALUES (1, 'alice', 30)")
		mustExec(t, env, d, "INSERT INTO users VALUES (2, 'bob', 25)")

		r := mustExec(t, env, d, "SELECT * FROM users WHERE id = 1")
		if len(r.Rows) != 1 || r.Rows[0][1].Text != "alice" {
			t.Errorf("select: %+v", r.Rows)
		}
		r = mustExec(t, env, d, "SELECT name FROM users WHERE age = 25")
		if len(r.Rows) != 1 || r.Rows[0][0].Text != "bob" {
			t.Errorf("scan select: %+v", r.Rows)
		}
		r = mustExec(t, env, d, "UPDATE users SET age = 26 WHERE id = 2")
		if r.Affected != 1 {
			t.Errorf("update affected %d", r.Affected)
		}
		r = mustExec(t, env, d, "SELECT age FROM users WHERE id = 2")
		if len(r.Rows) != 1 || r.Rows[0][0].Int != 26 {
			t.Errorf("after update: %+v", r.Rows)
		}
		r = mustExec(t, env, d, "DELETE FROM users WHERE id = 1")
		if r.Affected != 1 {
			t.Errorf("delete affected %d", r.Affected)
		}
		r = mustExec(t, env, d, "SELECT * FROM users")
		if len(r.Rows) != 1 {
			t.Errorf("after delete: %+v", r.Rows)
		}
	})
}

func TestSQLStringEscapes(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 'it''s quoted')")
		r := mustExec(t, env, d, "SELECT s FROM t WHERE id = 1")
		if r.Rows[0][0].Text != "it's quoted" {
			t.Errorf("got %q", r.Rows[0][0].Text)
		}
	})
}

func TestSQLErrors(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		if _, err := d.Exec(env, "SELECT * FROM missing"); err == nil {
			t.Error("select from missing table succeeded")
		}
		if _, err := d.Exec(env, "DROP TABLE x"); err == nil {
			t.Error("unsupported statement accepted")
		}
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		if _, err := d.Exec(env, "CREATE TABLE t (id INTEGER PRIMARY KEY)"); err == nil {
			t.Error("duplicate table accepted")
		}
		if _, err := d.Exec(env, "SELECT nope FROM t"); err == nil {
			t.Error("unknown column accepted")
		}
	})
}

func TestBtreeManyInsertsAndSplits(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
		tab, _ := d.TableByName("kv")
		const n = 600 // forces multiple leaf splits and a root split
		rng := rand.New(rand.NewSource(3))
		perm := rng.Perm(n)
		for _, i := range perm {
			val := fmt.Sprintf("value-%04d-%s", i, string(make([]byte, 40)))
			if _, err := tab.Insert(env, []Value{IntValue(int64(i)), TextValue(val)}); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		// Every key retrievable.
		for i := 0; i < n; i++ {
			vals, ok, err := tab.Get(env, int64(i))
			if err != nil || !ok {
				t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
			}
			want := fmt.Sprintf("value-%04d-", i)
			if vals[1].Text[:len(want)] != want {
				t.Fatalf("get %d: %q", i, vals[1].Text[:20])
			}
		}
		// Scan returns all keys in order.
		prev := int64(-1)
		count := 0
		tab.ScanFrom(env, math.MinInt64, func(rowid int64, vals []Value) bool {
			if rowid <= prev {
				t.Errorf("scan out of order: %d after %d", rowid, prev)
			}
			prev = rowid
			count++
			return true
		})
		if count != n {
			t.Fatalf("scan saw %d rows, want %d", count, n)
		}
	})
}

// TestBtreeAgainstModel drives random operations against both the B+tree
// and a Go map and checks they agree.
func TestBtreeAgainstModel(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		if err := d.pager.Begin(); err != nil {
			t.Fatal(err)
		}
		tree, err := CreateBtree(env, d.pager)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.pager.Commit(env); err != nil {
			t.Fatal(err)
		}
		model := make(map[int64][]byte)
		rng := rand.New(rand.NewSource(99))
		for step := 0; step < 1500; step++ {
			key := int64(rng.Intn(300))
			d.pager.Begin()
			switch rng.Intn(4) {
			case 0, 1: // insert/replace
				val := make([]byte, 1+rng.Intn(120))
				rng.Read(val)
				if err := tree.Insert(env, key, val); err != nil {
					t.Fatal(err)
				}
				model[key] = val
			case 2: // delete
				ok, err := tree.Delete(env, key)
				if err != nil {
					t.Fatal(err)
				}
				_, want := model[key]
				if ok != want {
					t.Fatalf("step %d: delete(%d) = %v, model %v", step, key, ok, want)
				}
				delete(model, key)
			case 3: // search
				val, ok, err := tree.Search(env, key)
				if err != nil {
					t.Fatal(err)
				}
				want, exists := model[key]
				if ok != exists || (ok && string(val) != string(want)) {
					t.Fatalf("step %d: search(%d) mismatch", step, key)
				}
			}
			d.pager.Commit(env)
		}
		// Final sweep.
		for key, want := range model {
			val, ok, _ := tree.Search(env, key)
			if !ok || string(val) != string(want) {
				t.Fatalf("final: key %d lost", key)
			}
		}
	})
}

func TestTransactionRollback(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 100)")
		mustExec(t, env, d, "BEGIN")
		mustExec(t, env, d, "UPDATE t SET v = 999 WHERE id = 1")
		mustExec(t, env, d, "ROLLBACK")
		r := mustExec(t, env, d, "SELECT v FROM t WHERE id = 1")
		if r.Rows[0][0].Int != 100 {
			t.Errorf("rollback lost: v = %v", r.Rows[0][0])
		}
		mustExec(t, env, d, "BEGIN")
		mustExec(t, env, d, "UPDATE t SET v = 555 WHERE id = 1")
		mustExec(t, env, d, "COMMIT")
		r = mustExec(t, env, d, "SELECT v FROM t WHERE id = 1")
		if r.Rows[0][0].Int != 555 {
			t.Errorf("commit lost: v = %v", r.Rows[0][0])
		}
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("dbworld")
	dev := blockdev.New(p, 4096)
	f := fs.NewFS(p, svc.NewLocal(dev.Handler()), fs.Config{})
	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, 4096, 64); err != nil {
			t.Error(err)
			return
		}
		fsc := &fs.Client{Conn: svc.NewLocal(f.Handler())}
		d, err := Open(env, p, fsc, "p.db")
		if err != nil {
			t.Error(err)
			return
		}
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (7, 'persistent')")

		// Reopen the same file with a fresh DB instance (fresh pager).
		d2, err := Open(env, p, fsc, "p.db")
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		r, err := d2.Exec(env, "SELECT v FROM t WHERE id = 7")
		if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Text != "persistent" {
			t.Errorf("reopen select: %+v err=%v", r, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValuesRejected(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		tab, _ := d.TableByName("kv")
		_ = tab
		big := string(make([]byte, MaxValueSize+100))
		tab2, _ := d.TableByName("t")
		if _, err := tab2.Insert(env, []Value{IntValue(1), TextValue(big)}); err == nil {
			t.Error("oversized value accepted")
		}
	})
}

func TestAutoRowid(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE log (msg TEXT)")
		tab, _ := d.TableByName("log")
		id1, _ := tab.Insert(env, []Value{TextValue("a")})
		id2, _ := tab.Insert(env, []Value{TextValue("b")})
		if id2 != id1+1 {
			t.Errorf("rowids %d, %d", id1, id2)
		}
	})
}

// TestAutoRowidAfterDeletesEmptyRightmostLeaf: deleting the last rows
// empties the rightmost leaf, which Delete leaves in place. The next
// rowid must still be one past the largest remaining key, not 1, which
// would silently replace row 1.
func TestAutoRowidAfterDeletesEmptyRightmostLeaf(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE log (msg TEXT)")
		tab, _ := d.TableByName("log")
		text := func(i int) string { return strings.Repeat(string(rune('a'+i)), 1500) }
		for i := 1; i <= 10; i++ {
			if _, err := tab.Insert(env, []Value{TextValue(text(i))}); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		for _, id := range []int64{10, 9} {
			if ok, err := tab.Delete(env, id); err != nil || !ok {
				t.Fatalf("delete %d: %v, %v", id, ok, err)
			}
		}
		id, err := tab.Insert(env, []Value{TextValue("new")})
		if err != nil || id != 9 {
			t.Errorf("insert after deletes got rowid %d (%v), want 9", id, err)
		}
		if vals, ok, err := tab.Get(env, 1); err != nil || !ok || vals[0].Text != text(1) {
			t.Errorf("row 1 after the insert = %v, %v, %v; want the original row", vals, ok, err)
		}
		rows := 0
		if err := tab.ScanFrom(env, math.MinInt64, func(int64, []Value) bool { rows++; return true }); err != nil || rows != 9 {
			t.Errorf("scan saw %d rows (%v), want 9", rows, err)
		}
	})
}

func TestSQLScanPredicateAndMultiRowUpdate(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, pay INTEGER)")
		mustExec(t, env, d, "INSERT INTO emp VALUES (1, 'eng', 100)")
		mustExec(t, env, d, "INSERT INTO emp VALUES (2, 'eng', 110)")
		mustExec(t, env, d, "INSERT INTO emp VALUES (3, 'ops', 90)")
		// Non-PK predicate forces a scan.
		r := mustExec(t, env, d, "SELECT id FROM emp WHERE dept = 'eng'")
		if len(r.Rows) != 2 {
			t.Fatalf("scan select: %+v", r.Rows)
		}
		// Multi-row update through the scan path.
		r = mustExec(t, env, d, "UPDATE emp SET pay = 120 WHERE dept = 'eng'")
		if r.Affected != 2 {
			t.Fatalf("affected %d, want 2", r.Affected)
		}
		r = mustExec(t, env, d, "SELECT pay FROM emp")
		total := int64(0)
		for _, row := range r.Rows {
			total += row[0].Int
		}
		if total != 120+120+90 {
			t.Fatalf("pay sum = %d", total)
		}
		// Multi-row delete via scan.
		r = mustExec(t, env, d, "DELETE FROM emp WHERE dept = 'eng'")
		if r.Affected != 2 {
			t.Fatalf("delete affected %d", r.Affected)
		}
	})
}

func TestSQLNullSemantics(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, NULL)")
		// NULL never matches an equality predicate.
		r := mustExec(t, env, d, "SELECT id FROM t WHERE v = 'x'")
		if len(r.Rows) != 0 {
			t.Fatal("NULL matched a literal")
		}
		r = mustExec(t, env, d, "SELECT v FROM t WHERE id = 1")
		if r.Rows[0][0].Kind != KindNull {
			t.Fatal("NULL not round-tripped")
		}
	})
}

func TestSelectScanReturnsRowidOrder(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		for _, id := range []int{5, 1, 9, 3, 7} {
			mustExec(t, env, d, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", id, id*10))
		}
		r := mustExec(t, env, d, "SELECT id FROM t")
		prev := int64(-1)
		for _, row := range r.Rows {
			if row[0].Int <= prev {
				t.Fatalf("rows out of rowid order: %+v", r.Rows)
			}
			prev = row[0].Int
		}
	})
}
