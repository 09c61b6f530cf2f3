package rdbms

import (
	"fmt"

	"memex/internal/kvstore"
)

// Insert adds a row. It fails if a row with the same primary key exists.
func (t *Table) Insert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pk, err := t.pkOf(r)
	if err != nil {
		return err
	}
	key := t.rowKey(pk)
	if _, ok, err := t.db.kv.Get(key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("rdbms: %s: duplicate key %s", t.schema.Name, pk)
	}
	return t.writeRow(key, pk, r, nil)
}

// Update applies fn to the row with primary key pk and writes the result.
// Returns ok=false if the row does not exist.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 32 moves it off the generic row layer
func (t *Table) Update(pk Value, fn func(Row) Row) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.rowKey(pk)
	old, ok, err := t.db.kv.Get(key)
	if err != nil || !ok {
		return false, err
	}
	oldRow, err := decodeRow(&t.schema, old)
	if err != nil {
		return false, err
	}
	newRow := fn(cloneRow(oldRow))
	newPK, err := t.pkOf(newRow)
	if err != nil {
		return false, err
	}
	if !newPK.Equal(pk) {
		return false, fmt.Errorf("rdbms: %s: Update may not change the primary key", t.schema.Name)
	}
	return true, t.writeRow(key, pk, newRow, oldRow)
}

// writeRow encodes and stores r at key, with one entry per secondary
// index. oldRow, when non-nil, is the row being replaced: its index entries
// that r no longer matches are deleted. All kvstore mutations for one row
// go in a single batch, one commit, so that WAL recovery cannot observe a
// row without its index entries, nor an index entry its row no longer
// backs.
func (t *Table) writeRow(key []byte, pk Value, r Row, oldRow Row) error {
	blob, err := encodeRow(&t.schema, r, make([]byte, 0, 256))
	if err != nil {
		return err
	}
	batch := make([]kvstore.KV, 0, 1+2*len(t.schema.Indexes))
	for _, idxCol := range t.schema.Indexes {
		if oldVal := oldRow[idxCol]; oldRow != nil && !oldVal.Equal(r[idxCol]) {
			batch = append(batch, kvstore.KV{Key: t.idxKey(t.schema.colIndex(idxCol), oldVal, pk), Delete: true})
		}
	}
	pkEnc := encodeOrdered(pk, nil)
	batch = append(batch, kvstore.KV{Key: key, Value: blob})
	for _, idxCol := range t.schema.Indexes {
		// The index entry's value carries the PK encoding so lookups need
		// no key parsing.
		batch = append(batch, kvstore.KV{Key: t.idxKey(t.schema.colIndex(idxCol), r[idxCol], pk), Value: pkEnc})
	}
	return t.db.kv.PutBatch(batch)
}

func (t *Table) pkOf(r Row) (Value, error) {
	pk, ok := r[t.schema.Key]
	if !ok {
		return Value{}, fmt.Errorf("rdbms: %s: row missing key column %q", t.schema.Name, t.schema.Key)
	}
	want := t.schema.Columns[t.keyIdx].Type
	if pk.Type != want {
		return Value{}, fmt.Errorf("rdbms: %s: key type %s, want %s", t.schema.Name, pk.Type, want)
	}
	return pk, nil
}

func cloneRow(r Row) Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}
