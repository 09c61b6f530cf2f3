package rdbms

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Pred is an equality predicate over one column, col = Val. Combine with
// Query.Where (conjunction).
type Pred struct {
	Col string
	Val Value
}

// Eq builds an equality predicate.
func Eq(col string, v Value) Pred { return Pred{Col: col, Val: v} }

func (p Pred) eval(r Row) bool {
	v, ok := r[p.Col]
	return ok && v.Equal(p.Val)
}

// Query is a fluent select over one table. The planner drives the scan
// from the first predicate on the primary key, else the first on an
// indexed column; remaining predicates are applied as filters.
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
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 32 moves it off the generic row layer
func (q *Query) OrderBy(col string, desc bool) *Query {
	q.orderBy = col
	q.desc = desc
	return q
}

// plan selects the access path — "pk" (a primary-key point), "index" (a
// secondary-index point) or "scan" — and the predicate it looks up by.
func (q *Query) plan() (path string, by *Pred) {
	for i := range q.preds {
		if p := &q.preds[i]; p.Col == q.t.schema.Key {
			return "pk", p
		}
	}
	for i := range q.preds {
		if p := &q.preds[i]; slices.Contains(q.t.schema.Indexes, p.Col) {
			return "index", p
		}
	}
	return "scan", nil
}

// First returns the first matching row, with ok=false when none match.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 32 moves it off the generic row layer
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
	plan, by := q.plan()
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

	switch plan {
	case "pk":
		lo := encodeOrdered(by.Val, q.t.rowPrefix())
		return q.t.scanRows(lo, append(append([]byte(nil), lo...), 0x00), filter, fn)
	case "index":
		// Collect PK encodings from the index entries for the value, then
		// fetch rows.
		lo := encodeOrdered(by.Val, q.t.idxPrefix(q.t.schema.colIndex(by.Col)))
		var pks [][]byte
		err := q.t.db.kv.Scan(lo, prefixEnd(lo), func(k, v []byte) bool {
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
