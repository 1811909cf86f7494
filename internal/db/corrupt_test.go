package db

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"skybridge/internal/mk"
)

// TestCorruptRowFailsScan: a row that does not decode ends a scan with an
// error, as Get of that row does, instead of a short scan that reports
// success.
func TestCorruptRowFailsScan(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		for _, sql := range []string{"INSERT INTO t VALUES (1, 'a')", "INSERT INTO t VALUES (2, 'b')", "INSERT INTO t VALUES (3, 'c')"} {
			mustExec(t, env, d, sql)
		}
		tab, _ := d.TableByName("t")
		if err := d.Begin(env); err != nil {
			t.Fatal(err)
		}
		if err := tab.tree.Insert(env, 2, []byte{5}); err != nil { // header longer than the record
			t.Fatal(err)
		}
		if err := d.Commit(env); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Get(env, 2); err == nil {
			t.Error("Get of the corrupt row succeeded")
		}
		var seen []int64
		err := tab.ScanFrom(env, math.MinInt64, func(rowid int64, _ []Value) bool {
			seen = append(seen, rowid)
			return true
		})
		if err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("scan over the corrupt row: err %v after rows %v, want an error naming row 2", err, seen)
		}
		if r, err := d.Exec(env, "SELECT * FROM t"); err == nil {
			t.Errorf("SELECT over the corrupt row returned %d rows and no error", len(r.Rows))
		}
	})
}

// TestUpdateChecksValueCount: Update, like Insert, refuses a row with
// the wrong number of values, and leaves the stored row alone.
func TestUpdateChecksValueCount(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 'a')")
		tab, _ := d.TableByName("t")
		if _, err := tab.Update(env, 1, []Value{IntValue(1)}); err == nil {
			t.Error("update with 1 value for 2 columns succeeded")
		}
		if r := mustExec(t, env, d, "SELECT * FROM t WHERE v = 'a'"); len(r.Rows) != 1 {
			t.Errorf("row after the refused update: %v", r.Rows)
		}
	})
}

// TestCorruptShortRowFailsMatch: a stored row with fewer values than the
// table has columns is a corrupt-row error naming the row for SELECT,
// UPDATE and DELETE, through a scan and through a primary-key lookup,
// not an index-out-of-range panic.
func TestCorruptShortRowFailsMatch(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 'a')")
		tab, _ := d.TableByName("t")
		if err := d.Begin(env); err != nil {
			t.Fatal(err)
		}
		if err := tab.tree.Insert(env, 1, EncodeRecord([]Value{IntValue(1)})); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(env); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			"SELECT * FROM t WHERE v = 'a'",
			"SELECT v FROM t WHERE id = 1",
			"UPDATE t SET v = 'b' WHERE id = 1",
			"DELETE FROM t WHERE v = 'a'",
		} {
			if r, err := d.Exec(env, sql); err == nil || !strings.Contains(err.Error(), "row 1") {
				t.Errorf("%s over the short row: %v, %v; want an error naming row 1", sql, r, err)
			}
		}
	})
}

// TestDecodeRecordHugeLengths: header and text lengths of 2^63 or more are
// corrupt records, not slice bounds that wrap negative.
func TestDecodeRecordHugeLengths(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // uvarint 2^64-1
	for name, rec := range map[string][]byte{
		"header": append(slices.Clone(huge), 0, 0),
		"text":   append(append([]byte{11, 2}, huge...), "abc"...),
	} {
		t.Run(name, func(t *testing.T) {
			if vals, err := DecodeRecord(rec); err == nil {
				t.Errorf("length 2^64-1 decoded to %v", vals)
			}
		})
	}
}

// TestCorruptPageFailsLookup: a B+tree page whose used-bytes field or
// cell value length runs past the page fails the lookup with an error.
func TestCorruptPageFailsLookup(t *testing.T) {
	for _, c := range []struct {
		name  string
		off   int // page offset of the corrupted uint16
		value uint16
	}{
		{"used_bytes", 4, 5000},
		{"value_length", btHdrSize + 8, 0xffff},
	} {
		t.Run(c.name, func(t *testing.T) { corruptPageWorld(t, c.off, c.value) })
	}
}

// corruptPageWorld stores one row, overwrites the uint16 at page offset
// off of the table's root leaf with value, and looks the row up.
func corruptPageWorld(t *testing.T, off int, value uint16) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 'a')")
		tab, _ := d.TableByName("t")
		pg, err := d.pager.Get(env, tab.Root)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(pg.data[off:], value)
		if _, _, err := tab.Get(env, 1); err == nil {
			t.Errorf("uint16 %d at offset %d: lookup succeeded", value, off)
		}
	})
}

// FuzzDecodeRecord: any input decodes to values or fails with an error,
// and decoded values survive an encode/decode round trip.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord([]Value{IntValue(-7), TextValue("mixed"), NullValue, IntValue(1 << 40)}))
	f.Fuzz(func(t *testing.T, rec []byte) {
		vals, err := DecodeRecord(rec)
		if err != nil {
			return
		}
		again, err := DecodeRecord(EncodeRecord(vals))
		if err != nil || !slices.Equal(again, vals) {
			t.Fatalf("round trip of %v: %v, %v", vals, again, err)
		}
	})
}
