// Package db implements an embedded relational database engine in the
// mould of SQLite3, the application the paper's macro-benchmarks drive
// (§6.5): a pager with a rollback journal over the file-system service, a
// B+tree per table, a record codec, a catalog, and a small SQL dialect
// (CREATE TABLE / INSERT / SELECT / UPDATE / DELETE / BEGIN / COMMIT).
//
// The engine runs inside the client process ("we put the client and the
// SQLite3 database into the same virtual address space") and reaches
// storage through a svc transport to the file-system server, which in turn
// calls the block-device server — so every page fault in the database
// becomes the IPC traffic the evaluation measures.
package db

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// ValueKind discriminates SQL values.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindText
)

// Value is one SQL value.
type Value struct {
	Kind ValueKind
	Int  int64
	Text string
}

// NullValue is the SQL NULL.
var NullValue = Value{Kind: KindNull}

// IntValue builds an integer value.
func IntValue(v int64) Value { return Value{Kind: KindInt, Int: v} }

// TextValue builds a text value.
func TextValue(s string) Value { return Value{Kind: KindText, Text: s} }

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindText:
		return "'" + v.Text + "'"
	default:
		return fmt.Sprintf("Value(%d)", int(v.Kind))
	}
}

// Equal compares two values (NULL equals nothing, as in SQL).
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == KindInt {
		return v.Int == o.Int
	}
	return v.Text == o.Text
}

// EncodeRecord serializes a row: a header of per-column type/length
// varints followed by the column bodies (SQLite's record format, slightly
// simplified).
func EncodeRecord(vals []Value) []byte {
	var hdr, body []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
			hdr = append(hdr, 0)
		case KindInt:
			hdr = append(hdr, 1)
			n := binary.PutVarint(tmp[:], v.Int)
			body = append(body, tmp[:n]...)
		case KindText:
			hdr = append(hdr, 2)
			n := binary.PutUvarint(tmp[:], uint64(len(v.Text)))
			hdr = append(hdr, tmp[:n]...)
			body = append(body, v.Text...)
		}
	}
	out := make([]byte, 0, 2+len(hdr)+len(body))
	var tmp2 [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp2[:], uint64(len(hdr)))
	out = append(out, tmp2[:n]...)
	out = append(out, hdr...)
	out = append(out, body...)
	return out
}

// DecodeRecord parses a serialized row.
func DecodeRecord(b []byte) ([]Value, error) {
	hlen, n := binary.Uvarint(b)
	if n <= 0 || hlen > uint64(len(b)-n) {
		return nil, fmt.Errorf("db: corrupt record header")
	}
	hdr := b[n : n+int(hlen)]
	body := b[n+int(hlen):]
	var vals []Value
	for len(hdr) > 0 {
		switch hdr[0] {
		case 0:
			vals = append(vals, NullValue)
			hdr = hdr[1:]
		case 1:
			v, m := binary.Varint(body)
			if m <= 0 {
				return nil, fmt.Errorf("db: corrupt int column")
			}
			body = body[m:]
			vals = append(vals, IntValue(v))
			hdr = hdr[1:]
		case 2:
			l, m := binary.Uvarint(hdr[1:])
			if m <= 0 || l > uint64(len(body)) {
				return nil, fmt.Errorf("db: corrupt text column")
			}
			hdr = hdr[1+m:]
			vals = append(vals, TextValue(string(body[:l])))
			body = body[l:]
		default:
			return nil, fmt.Errorf("db: unknown column tag %d", hdr[0])
		}
	}
	return vals, nil
}
