package rdbms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Pred is a predicate over one column. Combine with Query.Where (conjunction).
type Pred struct {
	Col string
	Op  Op
	Val Value
	// Hi is the upper bound for OpBetween.
	Hi Value
}

// Op enumerates predicate operators.
type Op int

const (
	OpEq Op = iota + 1
	OpLt
	OpGe
	OpBetween // Val <= col < Hi
)

// Eq builds an equality predicate.
func Eq(col string, v Value) Pred { return Pred{Col: col, Op: OpEq, Val: v} }

// Ge / Lt build the one-sided range predicates col >= v and col < v.
func Ge(col string, v Value) Pred { return Pred{Col: col, Op: OpGe, Val: v} }
func Lt(col string, v Value) Pred { return Pred{Col: col, Op: OpLt, Val: v} }

// Between builds a half-open range predicate lo <= col < hi.
func Between(col string, lo, hi Value) Pred {
	return Pred{Col: col, Op: OpBetween, Val: lo, Hi: hi}
}

func (p Pred) eval(r Row) bool {
	v, ok := r[p.Col]
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.Equal(p.Val)
	case OpLt:
		return v.Less(p.Val)
	case OpGe:
		return p.Val.Less(v) || p.Val.Equal(v)
	case OpBetween:
		geLo := p.Val.Less(v) || p.Val.Equal(v)
		ltHi := v.Less(p.Hi)
		return geLo && ltHi
	}
	return false
}

// Query is a fluent select over one table. The planner drives the scan
// from the first predicate on the primary key, else the first on an
// indexed column (every operator is an equality or a range); remaining
// predicates are applied as filters.
type Query struct {
	t       *Table
	preds   []Pred
	orderBy string
	desc    bool
}

// Select starts a query on the table.
func (t *Table) Select() *Query { return &Query{t: t} }

// Where adds a predicate (conjunctive).
func (q *Query) Where(p Pred) *Query { q.preds = append(q.preds, p); return q }

// OrderBy sorts results by the given column ascending (desc=false).
func (q *Query) OrderBy(col string, desc bool) *Query {
	q.orderBy = col
	q.desc = desc
	return q
}

// Plan describes how a query will execute (exposed for tests and E5).
type Plan struct {
	// Access is "pk", "index" or "scan".
	Access string
	// Column is the access column for pk/index plans.
	Column string
}

// plan selects the access path: a primary-key point/range, a secondary
// index point/range, or a full scan.
func (q *Query) plan() (Plan, *Pred) {
	for i := range q.preds {
		p := &q.preds[i]
		if p.Col == q.t.schema.Key {
			return Plan{Access: "pk", Column: p.Col}, p
		}
	}
	for i := range q.preds {
		p := &q.preds[i]
		for _, idx := range q.t.schema.Indexes {
			if p.Col == idx {
				return Plan{Access: "index", Column: p.Col}, p
			}
		}
	}
	return Plan{Access: "scan"}, nil
}

// Explain returns the plan chosen for this query.
func (q *Query) Explain() Plan {
	p, _ := q.plan()
	return p
}

// Rows executes the query and returns all matching rows.
func (q *Query) Rows() ([]Row, error) {
	var out []Row
	err := q.Each(func(r Row) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// First returns the first matching row, with ok=false when none match.
func (q *Query) First() (Row, bool, error) {
	var row Row
	found := false
	err := q.Each(func(r Row) bool {
		row = r
		found = true
		return false
	})
	return row, found, err
}

// Count executes the query and returns the number of matches.
func (q *Query) Count() (int, error) {
	n := 0
	err := q.Each(func(Row) bool { n++; return true })
	return n, err
}

// Each streams matching rows to fn; fn returning false stops iteration.
// When OrderBy is set, rows are buffered and sorted first.
func (q *Query) Each(fn func(Row) bool) error {
	if q.orderBy != "" {
		rows, err := q.collect()
		if err != nil {
			return err
		}
		col := q.orderBy
		sort.SliceStable(rows, func(i, j int) bool {
			if q.desc {
				return rows[j][col].Less(rows[i][col])
			}
			return rows[i][col].Less(rows[j][col])
		})
		for _, r := range rows {
			if !fn(r) {
				return nil
			}
		}
		return nil
	}
	return q.each(fn)
}

func (q *Query) collect() ([]Row, error) {
	var rows []Row
	err := q.each(func(r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}

// each is the unordered row stream.
func (q *Query) each(fn func(Row) bool) error {
	plan, driver := q.plan()
	// The scan bounds already enforce the driving predicate; re-checking
	// it with the rest is cheap.
	filter := func(r Row) bool {
		for i := range q.preds {
			if !q.preds[i].eval(r) {
				return false
			}
		}
		return true
	}

	switch plan.Access {
	case "pk":
		lo, hi := q.t.pkBounds(driver)
		return q.t.scanRows(lo, hi, filter, fn)
	case "index":
		ci := q.t.schema.colIndex(plan.Column)
		lo, hi := q.t.idxBounds(ci, driver)
		// Collect PK encodings from the index, then fetch rows.
		var pks [][]byte
		prefix := q.t.idxPrefix(ci)
		err := q.t.db.kv.Scan(lo, hi, func(k, v []byte) bool {
			if !bytes.HasPrefix(k, prefix) {
				return false
			}
			pks = append(pks, v)
			return true
		})
		if err != nil {
			return err
		}
		for _, pkEnc := range pks {
			r, ok, err := q.t.rowByPKEnc(pkEnc)
			if err != nil {
				return err
			}
			if !ok || !filter(r) {
				continue
			}
			if !fn(r) {
				return nil
			}
		}
		return nil
	default:
		prefix := q.t.rowPrefix()
		return q.t.scanRows(prefix, prefixEnd(prefix), filter, fn)
	}
}

// scanRows streams the rows whose keys lie in [lo, hi) through filter to
// fn. A row that does not decode ends the scan with an error naming the
// table and the key: a partial answer with a nil error would look whole.
func (t *Table) scanRows(lo, hi []byte, filter, fn func(Row) bool) error {
	var bad error
	err := t.db.kv.Scan(lo, hi, func(k, v []byte) bool {
		r, err := decodeRow(&t.schema, v)
		if err != nil {
			bad = t.rowError(k[len(t.rowPrefix()):], err)
			return false
		}
		return !filter(r) || fn(r)
	})
	if err != nil {
		return err
	}
	return bad
}

// pkBounds converts the driving predicate into a [lo,hi) byte range over the
// table's row keyspace.
func (t *Table) pkBounds(p *Pred) (lo, hi []byte) {
	prefix := t.rowPrefix()
	switch p.Op {
	case OpEq:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = append(append([]byte(nil), lo...), 0x00)
	case OpGe:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = prefixEnd(prefix)
	case OpLt:
		lo = append([]byte(nil), prefix...)
		hi = encodeOrdered(p.Val, append([]byte(nil), prefix...))
	case OpBetween:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = encodeOrdered(p.Hi, append([]byte(nil), prefix...))
	default:
		lo = append([]byte(nil), prefix...)
		hi = prefixEnd(prefix)
	}
	return lo, hi
}

// idxBounds converts the driving predicate into a range over index keys.
func (t *Table) idxBounds(ci int, p *Pred) (lo, hi []byte) {
	prefix := t.idxPrefix(ci)
	switch p.Op {
	case OpEq:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = prefixEnd(lo)
	case OpGe:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = prefixEnd(prefix)
	case OpLt:
		lo = append([]byte(nil), prefix...)
		hi = encodeOrdered(p.Val, append([]byte(nil), prefix...))
	case OpBetween:
		lo = encodeOrdered(p.Val, append([]byte(nil), prefix...))
		hi = encodeOrdered(p.Hi, append([]byte(nil), prefix...))
	default:
		lo = append([]byte(nil), prefix...)
		hi = prefixEnd(prefix)
	}
	return lo, hi
}

// rowByPKEnc resolves an index entry's stored PK encoding back to its row.
func (t *Table) rowByPKEnc(pkEnc []byte) (Row, bool, error) {
	rowKey := append(append([]byte(nil), t.rowPrefix()...), pkEnc...)
	blob, ok, err := t.db.kv.Get(rowKey)
	if err != nil || !ok {
		return nil, false, err
	}
	r, err := decodeRow(&t.schema, blob)
	if err != nil {
		return nil, false, t.rowError(pkEnc, err)
	}
	return r, true, nil
}

// rowError names the table and the primary key of a row that does not
// decode; pkEnc is the key's ordered encoding.
func (t *Table) rowError(pkEnc []byte, err error) error {
	key := fmt.Sprintf("%x", pkEnc)
	if t.schema.Columns[t.keyIdx].Type == TInt && len(pkEnc) == 8 {
		key = fmt.Sprint(int64(binary.BigEndian.Uint64(pkEnc) ^ 1<<63))
	}
	return fmt.Errorf("rdbms: table %q, key %s: %w", t.schema.Name, key, err)
}

func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
