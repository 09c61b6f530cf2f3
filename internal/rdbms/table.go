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

// InsertSeq assigns consecutive ids from the table's sequence to rows —
// first, first+1, … in argument order, stored in each row's key column —
// and writes the advanced seq/<table> value, the rows and their index
// entries as one kvstore commit, so a row and the sequence value that
// covers it land together or not at all. If an assigned key is already
// taken (a caller Inserted explicit ids above the sequence), nothing is
// written and the sequence does not move.
func (t *Table) InsertSeq(rows ...Row) (first int64, err error) {
	if want := t.schema.Columns[t.keyIdx].Type; want != TInt {
		return 0, fmt.Errorf("rdbms: %s: InsertSeq needs an int key, have %s", t.schema.Name, want)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	last, err := t.lastIDLocked()
	if err != nil || len(rows) == 0 {
		return last + 1, err
	}
	batch := make([]kvstore.KV, 1, 1+len(rows)*(1+len(t.schema.Indexes)))
	batch[0] = kvstore.KV{Key: t.seqKey(), Value: encodeSeq(last + int64(len(rows)))}
	for i, r := range rows {
		pk := Int(last + 1 + int64(i))
		r[t.schema.Key] = pk
		key := t.rowKey(pk)
		if _, taken, err := t.db.kv.Get(key); err != nil {
			return 0, err
		} else if taken {
			return 0, fmt.Errorf("rdbms: %s: duplicate key %s", t.schema.Name, pk)
		}
		if batch, err = t.appendRow(batch, key, pk, r); err != nil {
			return 0, err
		}
	}
	if err := t.db.kv.PutBatch(batch); err != nil {
		t.seqRead = false // how much of the batch landed is the store's to say
		return 0, err
	}
	t.seq = last + int64(len(rows))
	return last + 1, nil
}

// Upsert inserts or replaces the row with the same primary key.
func (t *Table) Upsert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pk, err := t.pkOf(r)
	if err != nil {
		return err
	}
	key := t.rowKey(pk)
	old, ok, err := t.db.kv.Get(key)
	if err != nil {
		return err
	}
	var oldRow Row
	if ok {
		oldRow, err = decodeRow(&t.schema, old)
		if err != nil {
			return err
		}
	}
	return t.writeRow(key, pk, r, oldRow)
}

// Update applies fn to the row with primary key pk and writes the result.
// Returns ok=false if the row does not exist.
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

// writeRow encodes and stores r at key, maintaining secondary indexes.
// oldRow, when non-nil, is the row being replaced: its index entries that
// r no longer matches are deleted. All kvstore mutations for one row go in
// a single batch, one commit, so that WAL recovery cannot observe a row
// without its index entries, nor an index entry its row no longer backs.
func (t *Table) writeRow(key []byte, pk Value, r Row, oldRow Row) error {
	batch := make([]kvstore.KV, 0, 1+2*len(t.schema.Indexes))
	for _, idxCol := range t.schema.Indexes {
		if oldVal := oldRow[idxCol]; oldRow != nil && !oldVal.Equal(r[idxCol]) {
			batch = append(batch, kvstore.KV{Key: t.idxKey(t.schema.colIndex(idxCol), oldVal, pk), Delete: true})
		}
	}
	batch, err := t.appendRow(batch, key, pk, r)
	if err != nil {
		return err
	}
	return t.db.kv.PutBatch(batch)
}

// appendRow appends the kvstore pairs that store r at key: the encoded row
// and one entry per secondary index.
func (t *Table) appendRow(batch []kvstore.KV, key []byte, pk Value, r Row) ([]kvstore.KV, error) {
	blob, err := encodeRow(&t.schema, r, make([]byte, 0, 256))
	if err != nil {
		return batch, err
	}
	pkEnc := encodeOrdered(pk, nil)
	batch = append(batch, kvstore.KV{Key: key, Value: blob})
	for _, idxCol := range t.schema.Indexes {
		ci := t.schema.colIndex(idxCol)
		// The index entry's value carries the PK encoding so lookups need
		// no key parsing.
		batch = append(batch, kvstore.KV{Key: t.idxKey(ci, r[idxCol], pk), Value: pkEnc})
	}
	return batch, nil
}

// Get fetches the row with primary key pk.
func (t *Table) Get(pk Value) (Row, bool, error) {
	blob, ok, err := t.db.kv.Get(t.rowKey(pk))
	if err != nil || !ok {
		return nil, false, err
	}
	r, err := decodeRow(&t.schema, blob)
	if err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// Delete removes the row with primary key pk and its index entries, as
// one commit (no error when absent).
func (t *Table) Delete(pk Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.rowKey(pk)
	blob, ok, err := t.db.kv.Get(key)
	if err != nil || !ok {
		return err
	}
	r, err := decodeRow(&t.schema, blob)
	if err != nil {
		return err
	}
	batch := make([]kvstore.KV, 0, 1+len(t.schema.Indexes))
	for _, idxCol := range t.schema.Indexes {
		batch = append(batch, kvstore.KV{Key: t.idxKey(t.schema.colIndex(idxCol), r[idxCol], pk), Delete: true})
	}
	return t.db.kv.PutBatch(append(batch, kvstore.KV{Key: key, Delete: true}))
}

// Count returns the number of rows (by scanning; tables are metadata-sized).
func (t *Table) Count() (int, error) {
	n := 0
	err := t.db.kv.ScanPrefix(t.rowPrefix(), func(k, v []byte) bool {
		n++
		return true
	})
	return n, err
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
