package rdbms

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"memex/internal/kvstore"
)

// Keyspace layout inside the backing kvstore:
//
//	cat/<table>                → JSON schema (catalog)
//	seq/<table>                → next auto-increment id (8 bytes LE)
//	tbl/<tid>/<pk-ordered>     → encoded row
//	idx/<tid>/<col#>/<val-ordered><pk-ordered> → pk-ordered (covering the PK)
//
// <tid> is a stable 4-byte table id assigned at CreateTable.

// DB is the relational engine: a catalog of tables over one kvstore.
type DB struct {
	mu     sync.RWMutex
	kv     *kvstore.Store
	tables map[string]*Table
	nextID uint32
}

// Table is a handle to one table.
type Table struct {
	db     *DB
	id     uint32
	schema Schema
	keyIdx int
	mu     sync.Mutex // serialises multi-key mutations for this table
	// seq is the last id NextID handed out, once seqRead says it was read
	// from seq/<table>. Guarded by mu.
	seq     int64
	seqRead bool
}

type catalogEntry struct {
	ID     uint32 `json:"id"`
	Schema Schema `json:"schema"`
}

// Open opens a database stored under dir, in a kvstore of its own.
func Open(dir string, kvOpts kvstore.Options) (*DB, error) {
	kv, err := kvstore.Open(dir, kvOpts)
	if err != nil {
		return nil, err
	}
	db := &DB{kv: kv, tables: map[string]*Table{}}
	// Load catalog.
	err = kv.ScanPrefix([]byte("cat/"), func(k, v []byte) bool {
		var ent catalogEntry
		if err := json.Unmarshal(v, &ent); err != nil {
			return true // skip corrupt entries; CreateTable will fail loudly
		}
		t := &Table{db: db, id: ent.ID, schema: ent.Schema}
		t.keyIdx = ent.Schema.colIndex(ent.Schema.Key)
		db.tables[ent.Schema.Name] = t
		if ent.ID >= db.nextID {
			db.nextID = ent.ID + 1
		}
		return true
	})
	if err != nil {
		kv.Close()
		return nil, err
	}
	return db, nil
}

// Close closes the database and its kvstore.
func (db *DB) Close() error { return db.kv.Close() }

// KV exposes the backing store (E5 reads its size).
func (db *DB) KV() *kvstore.Store { return db.kv }

// CreateTable registers a new table. It is an error if the name exists.
func (db *DB) CreateTable(s Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return nil, fmt.Errorf("rdbms: table %q already exists", s.Name)
	}
	ent := catalogEntry{ID: db.nextID, Schema: s}
	db.nextID++
	blob, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	if err := db.kv.Put([]byte("cat/"+s.Name), blob); err != nil {
		return nil, err
	}
	t := &Table{db: db, id: ent.ID, schema: s, keyIdx: s.colIndex(s.Key)}
	db.tables[s.Name] = t
	return t, nil
}

// EnsureTable returns the named table, creating it with schema s when
// absent. A stored table whose schema differs from s is refused: code
// written against s could neither encode its rows nor rely on its indexes.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 21(b) moves it off the generic row layer
func (db *DB) EnsureTable(s Schema) (*Table, error) {
	db.mu.RLock()
	t, ok := db.tables[s.Name]
	db.mu.RUnlock()
	if !ok {
		return db.CreateTable(s)
	}
	if d := t.schema.diff(&s); d != "" {
		return nil, fmt.Errorf("rdbms: table %q: stored schema differs from the requested one: %s", s.Name, d)
	}
	return t, nil
}

// NextID returns an auto-incrementing int64 for the table, persisted so ids
// survive restarts.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder, until ROADMAP item 21(b) moves it off the generic row layer
func (t *Table) NextID() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last, err := t.lastIDLocked()
	if err != nil {
		return 0, err
	}
	if err := t.db.kv.Put(t.seqKey(), encodeSeq(last+1)); err != nil {
		t.seqRead = false
		return 0, err
	}
	t.seq = last + 1
	return t.seq, nil
}

func (t *Table) seqKey() []byte { return []byte("seq/" + t.schema.Name) }

func encodeSeq(last int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(last))
}

// lastIDLocked returns the last id the sequence handed out (0 before the
// first), reading seq/<table> on first use. Caller holds mu.
func (t *Table) lastIDLocked() (int64, error) {
	if !t.seqRead {
		v, ok, err := t.db.kv.Get(t.seqKey())
		if err != nil {
			return 0, err
		}
		t.seq = 0
		if ok {
			if len(v) != 8 {
				return 0, fmt.Errorf("rdbms: %s: sequence record is %d bytes, want 8", t.schema.Name, len(v))
			}
			t.seq = int64(binary.LittleEndian.Uint64(v))
		}
		t.seqRead = true
	}
	return t.seq, nil
}

func (t *Table) rowPrefix() []byte {
	p := make([]byte, 0, 16)
	p = append(p, "tbl/"...)
	p = binary.BigEndian.AppendUint32(p, t.id)
	p = append(p, '/')
	return p
}

func (t *Table) rowKey(pk Value) []byte {
	return encodeOrdered(pk, t.rowPrefix())
}

func (t *Table) idxPrefix(col int) []byte {
	p := make([]byte, 0, 16)
	p = append(p, "idx/"...)
	p = binary.BigEndian.AppendUint32(p, t.id)
	p = append(p, '/')
	p = binary.BigEndian.AppendUint16(p, uint16(col))
	p = append(p, '/')
	return p
}

func (t *Table) idxKey(col int, val, pk Value) []byte {
	p := encodeOrdered(val, t.idxPrefix(col))
	return encodeOrdered(pk, p)
}
