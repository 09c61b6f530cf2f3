package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// btree implements the on-page B+tree. All methods assume the caller holds
// the store's write lock (mutations) or read lock (lookups).
type btree struct {
	pg   *Pager
	root pageID
}

// metaRoot/metaFree/metaLSN offsets within the meta page payload.
const (
	metaMagicOff = 16
	metaRootOff  = 24
	metaFreeOff  = 28
	metaLSNOff   = 32
	metaCountOff = 40
	metaMagic    = 0x4d454d4558 // "MEMEX"
)

func (t *btree) loadMeta() (count uint64, lsn uint64, err error) {
	meta, err := t.pg.get(0)
	if err != nil {
		return 0, 0, err
	}
	defer t.pg.unpin(meta)
	magic := binary.LittleEndian.Uint64(meta.buf[metaMagicOff:])
	if magic != 0 && magic != metaMagic {
		return 0, 0, fmt.Errorf("kvstore: bad magic %#x", magic)
	}
	t.root = pageID(binary.LittleEndian.Uint32(meta.buf[metaRootOff:]))
	t.pg.freeHead = pageID(binary.LittleEndian.Uint32(meta.buf[metaFreeOff:]))
	lsn = binary.LittleEndian.Uint64(meta.buf[metaLSNOff:])
	count = binary.LittleEndian.Uint64(meta.buf[metaCountOff:])
	return count, lsn, nil
}

func (t *btree) saveMeta(count, lsn uint64) error {
	meta, err := t.pg.get(0)
	if err != nil {
		return err
	}
	defer t.pg.unpin(meta)
	binary.LittleEndian.PutUint64(meta.buf[metaMagicOff:], metaMagic)
	binary.LittleEndian.PutUint32(meta.buf[metaRootOff:], uint32(t.root))
	binary.LittleEndian.PutUint32(meta.buf[metaFreeOff:], uint32(t.pg.freeHead))
	binary.LittleEndian.PutUint64(meta.buf[metaLSNOff:], lsn)
	binary.LittleEndian.PutUint64(meta.buf[metaCountOff:], count)
	meta.dirty = true
	return nil
}

// leafSearch returns the slot index of the first key >= k, and whether an
// exact match was found.
func leafSearch(p *page, k []byte) (int, bool) {
	lo, hi := 0, p.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(p.leafKey(mid), k) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// intSearch returns the child page to descend into for key k.
// Internal page invariant: next() holds keys < intKey(0); intChild(i) holds
// keys in [intKey(i), intKey(i+1)).
func intSearch(p *page, k []byte) pageID {
	lo, hi := 0, p.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.intKey(mid), k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return p.next()
	}
	return p.intChild(lo - 1)
}

// get returns the value for k, or nil/false.
func (t *btree) get(k []byte) ([]byte, bool, error) {
	if t.root == nilPage {
		return nil, false, nil
	}
	id := t.root
	for {
		p, err := t.pg.get(id)
		if err != nil {
			return nil, false, err
		}
		switch p.kind {
		case pageLeaf:
			i, ok := leafSearch(p, k)
			if !ok {
				t.pg.unpin(p)
				return nil, false, nil
			}
			v := append([]byte(nil), p.leafVal(i)...)
			t.pg.unpin(p)
			return v, true, nil
		case pageInternal:
			next := intSearch(p, k)
			t.pg.unpin(p)
			id = next
		default:
			t.pg.unpin(p)
			return nil, false, fmt.Errorf("kvstore: corrupt page %d kind %d", id, p.kind)
		}
	}
}

// put inserts or replaces k→v. Returns true if a new key was added.
func (t *btree) put(k, v []byte) (bool, error) {
	if len(k)+len(v) > maxPayload {
		return false, errValueTooLarge
	}
	if t.root == nilPage {
		leaf, err := t.pg.allocate(pageLeaf)
		if err != nil {
			return false, err
		}
		leaf.insertLeafCell(0, k, v)
		t.root = leaf.id
		t.pg.unpin(leaf)
		return true, nil
	}
	added, split, sepKey, sepChild, err := t.insert(t.root, k, v)
	if err != nil {
		return false, err
	}
	if split {
		// Grow a new root.
		newRoot, err := t.pg.allocate(pageInternal)
		if err != nil {
			return false, err
		}
		newRoot.setNext(t.root)
		newRoot.insertIntCell(0, sepKey, sepChild)
		t.root = newRoot.id
		t.pg.unpin(newRoot)
	}
	return added, nil
}

// insert recursively descends from page id. On child split it returns
// (split=true, separator key, new right sibling id) for the parent to absorb.
func (t *btree) insert(id pageID, k, v []byte) (added, split bool, sepKey []byte, sepChild pageID, err error) {
	p, err := t.pg.get(id)
	if err != nil {
		return false, false, nil, 0, err
	}
	defer t.pg.unpin(p)

	if p.kind == pageLeaf {
		i, ok := leafSearch(p, k)
		replaced := false
		if ok {
			// Replace: remove the old cell, then insert as if fresh so an
			// enlarged value can trigger a split instead of overflowing.
			p.removeCell(i)
			replaced = true
		}
		need := 6 + len(k) + len(v)
		if p.freeSpace() < need && p.liveBytes()+need+slotSize <= PageSize {
			p.compact()
		}
		if p.freeSpace() >= need {
			p.insertLeafCell(i, k, v)
			return !replaced, false, nil, 0, nil
		}
		// Split, redistributing cells INCLUDING the incoming one so both
		// halves are guaranteed to fit (cells are capped at maxPayload).
		rightP, sep, err := t.splitLeafInsert(p, i, k, v)
		if err != nil {
			return false, false, nil, 0, err
		}
		rid := rightP.id
		t.pg.unpin(rightP)
		return !replaced, true, sep, rid, nil
	}

	// Internal page: descend.
	child := intSearch(p, k)
	added, csplit, cSep, cChild, err := t.insert(child, k, v)
	if err != nil {
		return false, false, nil, 0, err
	}
	if !csplit {
		return added, false, nil, 0, nil
	}
	// Absorb child's separator.
	pos, _ := t.intInsertPos(p, cSep)
	need := 6 + len(cSep)
	if p.freeSpace() < need && p.liveBytes()+need+slotSize <= PageSize {
		p.compact()
	}
	if p.freeSpace() >= need {
		p.insertIntCell(pos, cSep, cChild)
		return added, false, nil, 0, nil
	}
	// Split internal page, redistributing separators including the new one.
	rightP, mid, err := t.splitInternalInsert(p, pos, cSep, cChild)
	if err != nil {
		return false, false, nil, 0, err
	}
	rid := rightP.id
	t.pg.unpin(rightP)
	return added, true, mid, rid, nil
}

// intInsertPos returns the slot where a separator key should be inserted.
func (t *btree) intInsertPos(p *page, k []byte) (int, bool) {
	lo, hi := 0, p.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(p.intKey(mid), k) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// leafCell is a staged cell used during splits.
type leafCell struct {
	key, val []byte
}

// splitLeafInsert splits leaf p with the new cell (k,v) at slot position
// pos logically included, redistributing by bytes so both halves fit.
// Returns the pinned right sibling and the promoted separator (the right
// page's first key).
func (t *btree) splitLeafInsert(p *page, pos int, k, v []byte) (*page, []byte, error) {
	nk := p.nkeys()
	cells := make([]leafCell, 0, nk+1)
	total := 0
	for i := 0; i < nk; i++ {
		if i == pos {
			cells = append(cells, leafCell{k, v})
			total += 6 + len(k) + len(v) + slotSize
		}
		key := append([]byte(nil), p.leafKey(i)...)
		val := append([]byte(nil), p.leafVal(i)...)
		cells = append(cells, leafCell{key, val})
		total += 6 + len(key) + len(val) + slotSize
	}
	if pos == nk {
		cells = append(cells, leafCell{k, v})
		total += 6 + len(k) + len(v) + slotSize
	}

	right, err := t.pg.allocate(pageLeaf)
	if err != nil {
		return nil, nil, err
	}
	// Greedy byte-balanced cut point: left takes cells until >= half.
	cut, acc := 0, 0
	for cut = 0; cut < len(cells)-1; cut++ {
		c := cells[cut]
		acc += 6 + len(c.key) + len(c.val) + slotSize
		if acc >= total/2 {
			cut++
			break
		}
	}
	if cut == 0 {
		cut = 1
	}
	// Rebuild left in place.
	oldRight := p.right()
	p.init(p.id, pageLeaf)
	for i := 0; i < cut; i++ {
		p.insertLeafCell(p.nkeys(), cells[i].key, cells[i].val)
	}
	for i := cut; i < len(cells); i++ {
		right.insertLeafCell(right.nkeys(), cells[i].key, cells[i].val)
	}
	right.setRight(oldRight)
	p.setRight(right.id)
	p.dirty = true
	right.dirty = true
	sep := append([]byte(nil), right.leafKey(0)...)
	return right, sep, nil
}

// intCell is a staged separator used during internal splits.
type intCell struct {
	key   []byte
	child pageID
}

// splitInternalInsert splits internal page p with the new separator at
// slot pos included, promoting the byte-balanced median. The promoted
// key's child becomes the right sibling's leftmost pointer.
func (t *btree) splitInternalInsert(p *page, pos int, k []byte, child pageID) (*page, []byte, error) {
	nk := p.nkeys()
	cells := make([]intCell, 0, nk+1)
	total := 0
	for i := 0; i < nk; i++ {
		if i == pos {
			cells = append(cells, intCell{k, child})
			total += 6 + len(k) + slotSize
		}
		key := append([]byte(nil), p.intKey(i)...)
		cells = append(cells, intCell{key, p.intChild(i)})
		total += 6 + len(key) + slotSize
	}
	if pos == nk {
		cells = append(cells, intCell{k, child})
		total += 6 + len(k) + slotSize
	}

	right, err := t.pg.allocate(pageInternal)
	if err != nil {
		return nil, nil, err
	}
	// Median index by bytes; must leave at least one cell on each side.
	mid, acc := 0, 0
	for mid = 0; mid < len(cells)-2; mid++ {
		acc += 6 + len(cells[mid].key) + slotSize
		if acc >= total/2 {
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	promoted := append([]byte(nil), cells[mid].key...)

	leftmost := p.next()
	p.init(p.id, pageInternal)
	p.setNext(leftmost)
	for i := 0; i < mid; i++ {
		p.insertIntCell(p.nkeys(), cells[i].key, cells[i].child)
	}
	right.setNext(cells[mid].child)
	for i := mid + 1; i < len(cells); i++ {
		right.insertIntCell(right.nkeys(), cells[i].key, cells[i].child)
	}
	p.dirty = true
	right.dirty = true
	return right, promoted, nil
}

// delete removes k. Leaves may become under-full; we do not rebalance
// (DESIGN.md §4), matching Berkeley DB's behaviour under
// random deletes. Empty leaves are unlinked lazily by scans.
func (t *btree) delete(k []byte) (bool, error) {
	if t.root == nilPage {
		return false, nil
	}
	id := t.root
	for {
		p, err := t.pg.get(id)
		if err != nil {
			return false, err
		}
		switch p.kind {
		case pageLeaf:
			i, ok := leafSearch(p, k)
			if !ok {
				t.pg.unpin(p)
				return false, nil
			}
			p.removeCell(i)
			t.pg.unpin(p)
			return true, nil
		case pageInternal:
			next := intSearch(p, k)
			t.pg.unpin(p)
			id = next
		default:
			t.pg.unpin(p)
			return false, fmt.Errorf("kvstore: corrupt page %d", id)
		}
	}
}

// leftmostLeaf returns the id of the leftmost leaf, or nilPage when empty.
func (t *btree) leftmostLeaf() (pageID, error) {
	if t.root == nilPage {
		return nilPage, nil
	}
	id := t.root
	for {
		p, err := t.pg.get(id)
		if err != nil {
			return nilPage, err
		}
		if p.kind == pageLeaf {
			t.pg.unpin(p)
			return id, nil
		}
		next := p.next()
		t.pg.unpin(p)
		id = next
	}
}

// seekLeaf returns the leaf that would contain k and the slot of the first
// key >= k within it (the slot may equal nkeys, meaning "next leaf").
func (t *btree) seekLeaf(k []byte) (pageID, int, error) {
	if t.root == nilPage {
		return nilPage, 0, nil
	}
	id := t.root
	for {
		p, err := t.pg.get(id)
		if err != nil {
			return nilPage, 0, err
		}
		if p.kind == pageLeaf {
			i, _ := leafSearch(p, k)
			t.pg.unpin(p)
			return id, i, nil
		}
		next := intSearch(p, k)
		t.pg.unpin(p)
		id = next
	}
}
