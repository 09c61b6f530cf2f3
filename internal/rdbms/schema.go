// Package rdbms implements a minimal relational engine in the role the
// Memex paper assigns to Oracle/DB2. Tables have typed columns, a primary
// key, and optional secondary indexes; rows are stored in an underlying
// kvstore B+tree, so everything is persistent and ordered. Queries are
// conjunctions of equality predicates, driven by the key or an index.
//
// The engine itself keeps its tables as typed records (core/tables.go); this
// package stays as the comparison arm of experiment E5, which contrasts a
// generic row store against the kvstore for term-granularity statistics,
// reproducing the paper's "overwhelming space and time overheads" claim.
package rdbms

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// ColType enumerates supported column types.
type ColType int

const (
	TInt ColType = iota + 1
	TFloat
	TString
	TBytes
	TBool
	TTime
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBytes:
		return "BYTES"
	case TBool:
		return "BOOL"
	case TTime:
		return "TIME"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: ordered columns, the primary-key column, and
// declared secondary indexes.
type Schema struct {
	Name    string
	Columns []Column
	// Key is the name of the primary-key column. It must be TInt or TString.
	Key string
	// Indexes lists columns with secondary indexes.
	Indexes []string
}

// colIndex returns the position of column name, or -1.
func (s *Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural sanity of the schema.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("rdbms: schema has no name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("rdbms: table %s has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("rdbms: table %s has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("rdbms: table %s: duplicate column %q", s.Name, c.Name)
		}
		if c.Type < TInt || c.Type > TTime {
			return fmt.Errorf("rdbms: table %s column %s: bad type", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	ki := s.colIndex(s.Key)
	if ki < 0 {
		return fmt.Errorf("rdbms: table %s: key column %q not found", s.Name, s.Key)
	}
	if kt := s.Columns[ki].Type; kt != TInt && kt != TString {
		return fmt.Errorf("rdbms: table %s: key column %q must be INT or STRING, got %s", s.Name, s.Key, kt)
	}
	for _, idx := range s.Indexes {
		ii := s.colIndex(idx)
		if ii < 0 {
			return fmt.Errorf("rdbms: table %s: indexed column %q not found", s.Name, idx)
		}
		if it := s.Columns[ii].Type; it == TBytes {
			return fmt.Errorf("rdbms: table %s: cannot index BYTES column %q", s.Name, idx)
		}
	}
	return nil
}

// layout lists what fixes how the table's rows and index entries are
// stored, in storage order.
func (s *Schema) layout() []string {
	out := []string{"key " + s.Key}
	for _, c := range s.Columns {
		out = append(out, "column "+c.Name+" "+c.Type.String())
	}
	for _, idx := range s.Indexes {
		out = append(out, "index "+idx)
	}
	return out
}

// diff says how the stored schema s departs from want, "" when the two
// lay rows and index entries out identically.
func (s *Schema) diff(want *Schema) string {
	have, need := s.layout(), want.layout()
	if slices.Equal(have, need) {
		return ""
	}
	var d []string
	for _, h := range have {
		if !slices.Contains(need, h) {
			d = append(d, "has "+h)
		}
	}
	for _, n := range need {
		if !slices.Contains(have, n) {
			d = append(d, "lacks "+n)
		}
	}
	if d == nil {
		return "same columns and indexes in another order"
	}
	return strings.Join(d, "; ")
}

// Value is a dynamically typed cell value. Exactly one arm is meaningful,
// selected by Type.
type Value struct {
	Type  ColType
	Int   int64
	Float float64
	Str   string
	Bytes []byte
	Bool  bool
	Time  time.Time
}

// Convenience constructors.

func Int(v int64) Value      { return Value{Type: TInt, Int: v} }
func Float(v float64) Value  { return Value{Type: TFloat, Float: v} }
func String(v string) Value  { return Value{Type: TString, Str: v} }
func Bytes(v []byte) Value   { return Value{Type: TBytes, Bytes: v} }
func Bool(v bool) Value      { return Value{Type: TBool, Bool: v} }
func Time(v time.Time) Value { return Value{Type: TTime, Time: v} }

// Equal reports deep equality of two values of the same type.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TInt:
		return v.Int == o.Int
	case TFloat:
		return v.Float == o.Float
	case TString:
		return v.Str == o.Str
	case TBytes:
		return string(v.Bytes) == string(o.Bytes)
	case TBool:
		return v.Bool == o.Bool
	case TTime:
		return v.Time.Equal(o.Time)
	}
	return false
}

// Less orders two values of the same comparable type.
func (v Value) Less(o Value) bool {
	switch v.Type {
	case TInt:
		return v.Int < o.Int
	case TFloat:
		return v.Float < o.Float
	case TString:
		return v.Str < o.Str
	case TBool:
		return !v.Bool && o.Bool
	case TTime:
		return v.Time.Before(o.Time)
	}
	return false
}

func (v Value) String() string {
	switch v.Type {
	case TInt:
		return fmt.Sprintf("%d", v.Int)
	case TFloat:
		return fmt.Sprintf("%g", v.Float)
	case TString:
		return v.Str
	case TBytes:
		return fmt.Sprintf("%x", v.Bytes)
	case TBool:
		return fmt.Sprintf("%t", v.Bool)
	case TTime:
		return v.Time.Format(time.RFC3339)
	}
	return "<nil>"
}

// Row maps column names to values.
type Row map[string]Value
