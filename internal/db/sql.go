package db

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"skybridge/internal/mk"
)

// The SQL dialect: CREATE TABLE, INSERT, SELECT (with equality or no
// predicate), UPDATE, DELETE, BEGIN, COMMIT, ROLLBACK. Statements over the
// first (INTEGER PRIMARY KEY) column execute as B+tree point operations;
// other predicates fall back to a table scan — the same access-path split
// SQLite makes.

// --- tokenizer ---

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct
)

type token struct {
	kind tokKind
	text string
}

func tokenize(sql string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for {
				if j >= len(sql) {
					return nil, fmt.Errorf("db: unterminated string literal")
				}
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(sql[j])
				j++
			}
			toks = append(toks, token{tkString, b.String()})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(sql) && sql[i+1] >= '0' && sql[i+1] <= '9':
			j := i + 1
			for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
				j++
			}
			toks = append(toks, token{tkNumber, sql[i:j]})
			i = j
		case isIdentChar(c):
			j := i
			for j < len(sql) && isIdentChar(sql[j]) {
				j++
			}
			toks = append(toks, token{tkIdent, strings.ToUpper(sql[i:j])})
			i = j
		case strings.ContainsRune("(),*=;<>", rune(c)):
			toks = append(toks, token{tkPunct, string(c)})
			i++
		default:
			return nil, fmt.Errorf("db: unexpected character %q", c)
		}
	}
	toks = append(toks, token{tkEOF, ""})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// --- parser/executor ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) accept(text string) bool {
	if p.peek().text == text && (p.peek().kind == tkIdent || p.peek().kind == tkPunct) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("db: expected %q, got %q", text, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tkIdent {
		return "", fmt.Errorf("db: expected identifier, got %q", t.text)
	}
	return strings.ToLower(t.text), nil
}

func (p *parser) value() (Value, error) {
	t := p.next()
	switch t.kind {
	case tkNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return NullValue, err
		}
		return IntValue(v), nil
	case tkString:
		return TextValue(t.text), nil
	case tkIdent:
		if t.text == "NULL" {
			return NullValue, nil
		}
	}
	return NullValue, fmt.Errorf("db: expected literal, got %q", t.text)
}

// table parses a table name and looks the table up.
func (d *DB) table(p *parser) (*Table, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// Rows is a query result.
type Rows struct {
	Columns []string
	Rows    [][]Value
	// Affected counts modified rows for INSERT/UPDATE/DELETE.
	Affected int
}

// Exec parses and executes one SQL statement.
func (d *DB) Exec(env *mk.Env, sql string) (*Rows, error) {
	env.Compute(uint64(40 + 2*len(sql))) // tokenizer + parser work
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	switch {
	case p.accept("CREATE"):
		return d.execCreate(env, p)
	case p.accept("INSERT"):
		return d.execInsert(env, p)
	case p.accept("SELECT"):
		return d.execSelect(env, p)
	case p.accept("UPDATE"):
		return d.execUpdate(env, p)
	case p.accept("DELETE"):
		return d.execDelete(env, p)
	case p.accept("BEGIN"):
		return &Rows{}, d.Begin(env)
	case p.accept("COMMIT"):
		return &Rows{}, d.Commit(env)
	case p.accept("ROLLBACK"):
		return &Rows{}, d.Rollback(env)
	default:
		return nil, fmt.Errorf("db: unsupported statement %q", p.peek().text)
	}
}

func (d *DB) execCreate(env *mk.Env, p *parser) (*Rows, error) {
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cols []Column
	pkFirst := false
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		col := Column{Name: cname, Type: ColText}
		if p.accept("INTEGER") {
			col.Type = ColInt
			if p.accept("PRIMARY") {
				if err := p.expect("KEY"); err != nil {
					return nil, err
				}
				if len(cols) == 0 {
					pkFirst = true
				}
			}
		} else if p.accept("TEXT") {
			col.Type = ColText
		}
		cols = append(cols, col)
		if p.accept(")") {
			break
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
	if _, err := d.CreateTable(env, name, cols, pkFirst); err != nil {
		return nil, err
	}
	return &Rows{}, nil
}

func (d *DB) execInsert(env *mk.Env, p *parser) (*Rows, error) {
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	t, err := d.table(p)
	if err != nil {
		return nil, err
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var vals []Value
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.accept(")") {
			break
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
	if _, err := t.Insert(env, vals); err != nil {
		return nil, err
	}
	return &Rows{Affected: 1}, nil
}

// wherePred is a parsed "WHERE col = literal" predicate.
type wherePred struct {
	col string
	val Value
}

func (p *parser) parseWhere() (*wherePred, error) {
	if !p.accept("WHERE") {
		return nil, nil
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	return &wherePred{col: col, val: v}, nil
}

// matchRows returns the rowids and rows matching the predicate (all
// rows without one), using a point lookup when the predicate covers the
// integer primary key and a table scan otherwise.
func (t *Table) matchRows(env *mk.Env, pred *wherePred) ([]int64, [][]Value, error) {
	ci := 0
	if pred != nil {
		var ok bool
		if ci, ok = t.ColumnIndex(pred.col); !ok {
			return nil, nil, fmt.Errorf("db: no column %q in %s", pred.col, t.Name)
		}
		if ci == 0 && t.PKFirst && pred.val.Kind == KindInt {
			vals, ok, err := t.Get(env, pred.val.Int)
			if err != nil || !ok {
				return nil, nil, err
			}
			return []int64{pred.val.Int}, [][]Value{vals}, nil
		}
	}
	var ids []int64
	var rows [][]Value
	err := t.ScanFrom(env, math.MinInt64, func(rowid int64, vals []Value) bool {
		if pred == nil || vals[ci].Equal(pred.val) {
			ids = append(ids, rowid)
			rows = append(rows, vals)
		}
		return true
	})
	return ids, rows, err
}

func (d *DB) execSelect(env *mk.Env, p *parser) (*Rows, error) {
	var wantCols []string
	star := false
	if p.accept("*") {
		star = true
	} else {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			wantCols = append(wantCols, c)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	t, err := d.table(p)
	if err != nil {
		return nil, err
	}
	pred, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	_, rows, err := t.matchRows(env, pred)
	if err != nil {
		return nil, err
	}
	out := &Rows{}
	if star {
		for _, c := range t.Columns {
			out.Columns = append(out.Columns, c.Name)
		}
		out.Rows = rows
		return out, nil
	}
	var idx []int
	for _, c := range wantCols {
		ci, ok := t.ColumnIndex(c)
		if !ok {
			return nil, fmt.Errorf("db: no column %q in %s", c, t.Name)
		}
		idx = append(idx, ci)
		out.Columns = append(out.Columns, c)
	}
	for _, r := range rows {
		proj := make([]Value, len(idx))
		for i, ci := range idx {
			proj[i] = r[ci]
		}
		out.Rows = append(out.Rows, proj)
	}
	return out, nil
}

func (d *DB) execUpdate(env *mk.Env, p *parser) (*Rows, error) {
	t, err := d.table(p)
	if err != nil {
		return nil, err
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	type setClause struct {
		ci  int
		val Value
	}
	var sets []setClause
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci, ok := t.ColumnIndex(col)
		if !ok {
			return nil, fmt.Errorf("db: no column %q in %s", col, t.Name)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		sets = append(sets, setClause{ci, v})
		if !p.accept(",") {
			break
		}
	}
	pred, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	ids, rows, err := t.matchRows(env, pred)
	if err != nil {
		return nil, err
	}
	for i, rowid := range ids {
		vals := append([]Value(nil), rows[i]...)
		for _, s := range sets {
			vals[s.ci] = s.val
		}
		if _, err := t.Update(env, rowid, vals); err != nil {
			return nil, err
		}
	}
	return &Rows{Affected: len(ids)}, nil
}

func (d *DB) execDelete(env *mk.Env, p *parser) (*Rows, error) {
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	t, err := d.table(p)
	if err != nil {
		return nil, err
	}
	pred, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	ids, _, err := t.matchRows(env, pred)
	if err != nil {
		return nil, err
	}
	for _, rowid := range ids {
		if _, err := t.Delete(env, rowid); err != nil {
			return nil, err
		}
	}
	return &Rows{Affected: len(ids)}, nil
}
