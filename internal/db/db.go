package db

import (
	"encoding/binary"
	"fmt"

	"skybridge/internal/fs"
	"skybridge/internal/mk"
)

// dbMagic identifies page 0 of a database file.
const dbMagic = 0x53514C42 // "SQLB"

// ColType is a column type.
type ColType int

// Column types.
const (
	ColInt ColType = iota
	ColText
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Table is a catalogued table: rows live in a B+tree keyed by rowid. If
// the first column is declared INTEGER PRIMARY KEY it aliases the rowid.
type Table struct {
	Name    string
	Root    int
	Columns []Column
	PKFirst bool // first column is INTEGER PRIMARY KEY

	tree *Btree
	db   *DB
}

// DB is one open database.
type DB struct {
	Proc   *mk.Process
	pager  *Pager
	tables map[string]*Table

	// Stats.
	Inserts, Updates, Queries, Deletes uint64
}

// Open opens (creating if empty) a database stored in the named file on
// the FS service, with synchronous one-call-per-page IO.
func Open(env *mk.Env, proc *mk.Process, fsc *fs.Client, name string) (*DB, error) {
	return OpenIO(env, proc, fsc, name, PagerIO{})
}

// OpenIO is Open with an explicit pager IO mode (batched commits and/or
// an async ring for prefetch and writeback).
func OpenIO(env *mk.Env, proc *mk.Process, fsc *fs.Client, name string, io PagerIO) (*DB, error) {
	pager, err := OpenPagerIO(env, proc, fsc, name, io)
	if err != nil {
		return nil, err
	}
	d := &DB{Proc: proc, pager: pager, tables: make(map[string]*Table)}
	if pager.NPages() == 0 {
		// Fresh database: materialize the catalog page.
		if err := pager.Begin(); err != nil {
			return nil, err
		}
		if _, err := pager.Allocate(env); err != nil {
			return nil, err
		}
		if err := d.writeCatalog(env); err != nil {
			return nil, err
		}
		if err := pager.Commit(env); err != nil {
			return nil, err
		}
		return d, nil
	}
	return d, d.readCatalog(env)
}

// Pager exposes pager statistics.
func (d *DB) Pager() *Pager { return d.pager }

// writeCatalog serializes the schema to page 0.
func (d *DB) writeCatalog(env *mk.Env) error {
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf, dbMagic)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(d.tables)))
	off := 8
	put := func(b []byte) {
		if off+1+len(b) > PageSize {
			panic("db: catalog overflow")
		}
		buf[off] = byte(len(b))
		copy(buf[off+1:], b)
		off += 1 + len(b)
	}
	for _, t := range d.tables {
		put([]byte(t.Name))
		binary.LittleEndian.PutUint32(buf[off:], uint32(t.Root))
		off += 4
		flags := byte(0)
		if t.PKFirst {
			flags = 1
		}
		buf[off] = flags
		buf[off+1] = byte(len(t.Columns))
		off += 2
		for _, c := range t.Columns {
			put([]byte(c.Name))
			buf[off] = byte(c.Type)
			off++
		}
	}
	pg, err := d.pager.Get(env, 0)
	if err != nil {
		return err
	}
	return d.pager.Write(env, pg, 0, buf)
}

// readCatalog loads the schema from page 0.
func (d *DB) readCatalog(env *mk.Env) error {
	pg, err := d.pager.Get(env, 0)
	if err != nil {
		return err
	}
	buf := pg.read(env, 0, PageSize)
	if binary.LittleEndian.Uint32(buf) != dbMagic {
		return fmt.Errorf("db: bad catalog magic")
	}
	ntables := int(binary.LittleEndian.Uint16(buf[4:]))
	off := 8
	get := func() string {
		n := int(buf[off])
		s := string(buf[off+1 : off+1+n])
		off += 1 + n
		return s
	}
	for i := 0; i < ntables; i++ {
		t := &Table{db: d}
		t.Name = get()
		t.Root = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		t.PKFirst = buf[off]&1 != 0
		ncols := int(buf[off+1])
		off += 2
		for c := 0; c < ncols; c++ {
			name := get()
			typ := ColType(buf[off])
			off++
			t.Columns = append(t.Columns, Column{Name: name, Type: typ})
		}
		t.tree = OpenBtree(d.pager, t.Root)
		d.tables[t.Name] = t
	}
	return nil
}

// CreateTable creates a table (auto-commits unless inside an explicit
// transaction).
func (d *DB) CreateTable(env *mk.Env, name string, cols []Column, pkFirst bool) (*Table, error) {
	if _, ok := d.tables[name]; ok {
		return nil, fmt.Errorf("db: table %q exists", name)
	}
	auto, err := d.beginAuto(env)
	if err != nil {
		return nil, err
	}
	tree, err := CreateBtree(env, d.pager)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Root: tree.Root, Columns: cols, PKFirst: pkFirst, tree: tree, db: d}
	d.tables[name] = t
	if err := d.writeCatalog(env); err != nil {
		return nil, err
	}
	return t, d.commitAuto(env, auto)
}

// TableByName looks a table up.
func (d *DB) TableByName(name string) (*Table, bool) {
	t, ok := d.tables[name]
	return t, ok
}

// Begin opens an explicit transaction.
func (d *DB) Begin(env *mk.Env) error { return d.pager.Begin() }

// Commit commits an explicit transaction.
func (d *DB) Commit(env *mk.Env) error { return d.pager.Commit(env) }

// Rollback aborts an explicit transaction.
func (d *DB) Rollback(env *mk.Env) error { return d.pager.Rollback(env) }

// beginAuto opens a transaction if none is active; commitAuto commits it.
func (d *DB) beginAuto(env *mk.Env) (bool, error) {
	if d.pager.InTx() {
		return false, nil
	}
	return true, d.pager.Begin()
}

func (d *DB) commitAuto(env *mk.Env, auto bool) error {
	if !auto {
		return nil
	}
	return d.pager.Commit(env)
}

// Insert adds a row, returning its rowid. With PKFirst, the first value
// supplies the rowid; otherwise it is max+1.
func (t *Table) Insert(env *mk.Env, vals []Value) (int64, error) {
	if len(vals) != len(t.Columns) {
		return 0, fmt.Errorf("db: %s: %d values for %d columns", t.Name, len(vals), len(t.Columns))
	}
	var rowid int64
	if t.PKFirst {
		if vals[0].Kind != KindInt {
			return 0, fmt.Errorf("db: %s: primary key must be an integer", t.Name)
		}
		rowid = vals[0].Int
	} else {
		maxKey, ok, err := t.tree.MaxKey(env)
		if err != nil {
			return 0, err
		}
		if ok {
			rowid = maxKey + 1
		} else {
			rowid = 1
		}
	}
	auto, err := t.db.beginAuto(env)
	if err != nil {
		return 0, err
	}
	rec := EncodeRecord(vals)
	env.Compute(uint64(20 + len(rec)/4)) // encoding cost
	if err := t.tree.Insert(env, rowid, rec); err != nil {
		return 0, err
	}
	t.db.Inserts++
	return rowid, t.db.commitAuto(env, auto)
}

// Get fetches the row with the given rowid.
func (t *Table) Get(env *mk.Env, rowid int64) ([]Value, bool, error) {
	rec, ok, err := t.tree.Search(env, rowid)
	if err != nil || !ok {
		return nil, ok, err
	}
	env.Compute(uint64(10 + len(rec)/4))
	vals, err := DecodeRecord(rec)
	if err != nil {
		return nil, false, err
	}
	t.db.Queries++
	return vals, true, nil
}

// Update replaces the row with the given rowid.
func (t *Table) Update(env *mk.Env, rowid int64, vals []Value) (bool, error) {
	if len(vals) != len(t.Columns) {
		return false, fmt.Errorf("db: %s: %d values for %d columns", t.Name, len(vals), len(t.Columns))
	}
	_, ok, err := t.tree.Search(env, rowid)
	if err != nil || !ok {
		return ok, err
	}
	auto, err := t.db.beginAuto(env)
	if err != nil {
		return false, err
	}
	rec := EncodeRecord(vals)
	env.Compute(uint64(20 + len(rec)/4))
	if err := t.tree.Insert(env, rowid, rec); err != nil {
		return false, err
	}
	t.db.Updates++
	return true, t.db.commitAuto(env, auto)
}

// Delete removes the row with the given rowid.
func (t *Table) Delete(env *mk.Env, rowid int64) (bool, error) {
	auto, err := t.db.beginAuto(env)
	if err != nil {
		return false, err
	}
	ok, err := t.tree.Delete(env, rowid)
	if err != nil {
		return false, err
	}
	if ok {
		t.db.Deletes++
	}
	return ok, t.db.commitAuto(env, auto)
}

// ScanFrom iterates rows in rowid order starting at the first rowid >=
// start, until fn returns false (range scans, YCSB workload E;
// math.MinInt64 scans the whole table). A row that does not decode ends
// the scan with an error.
func (t *Table) ScanFrom(env *mk.Env, start int64, fn func(rowid int64, vals []Value) bool) error {
	return t.tree.ScanFrom(env, start, func(key int64, rec []byte) (bool, error) {
		vals, err := DecodeRecord(rec)
		if err != nil {
			return false, fmt.Errorf("db: %s: row %d: %w", t.Name, key, err)
		}
		env.Compute(uint64(10 + len(rec)/8))
		return fn(key, vals), nil
	})
}

// ColumnIndex resolves a column name.
func (t *Table) ColumnIndex(name string) (int, bool) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}
