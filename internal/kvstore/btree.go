package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// btree implements the on-page B+tree. All methods assume the caller holds
// the store's write lock (mutations) or read lock (lookups).
type btree struct {
	pg   *Pager
	root pageID
	// splits and rebalances count what full leaves cost in this life
	// (Stats.LeafSplits/.LeafRebalances); read without the lock, hence
	// atomic.
	splits, rebalances atomic.Uint64
}

// rebalanceMinFree is the room a sibling must have before a full leaf sheds
// cells into it instead of splitting. Lower fills pages further and
// rebalances more often; DESIGN.md §4 "split last" has the table this value
// was chosen from.
const rebalanceMinFree = PageSize / 8

// metaRoot/metaFree/metaLSN offsets within the meta page payload.
// metaFreeOff held the head of a free-page list that nothing ever fed; it
// stays reserved, is written as 0 and must read 0.
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
	if free := binary.LittleEndian.Uint32(meta.buf[metaFreeOff:]); free != 0 {
		return 0, 0, fmt.Errorf("kvstore: meta page has free-list head %d; this version writes none and cannot reuse freed pages", free)
	}
	t.root = pageID(binary.LittleEndian.Uint32(meta.buf[metaRootOff:]))
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
	binary.LittleEndian.PutUint32(meta.buf[metaFreeOff:], 0)
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

// intSearch returns the slot of the child to descend into for key k (see
// childAt). Internal page invariant: next(), slot -1, holds keys <
// intKey(0); intChild(i) holds keys in [intKey(i), intKey(i+1)).
func intSearch(p *page, k []byte) int {
	lo, hi := 0, p.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.intKey(mid), k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
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
			next := p.childAt(intSearch(p, k))
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
		leaf := t.pg.allocate(pageLeaf)
		leaf.insertLeafCell(0, k, v)
		t.root = leaf.id
		t.pg.unpin(leaf)
		return true, nil
	}
	added, split, sepKey, sepChild, err := t.insert(t.root, nil, 0, k, v)
	if err != nil {
		return false, err
	}
	if split {
		// Grow a new root.
		newRoot := t.pg.allocate(pageInternal)
		newRoot.setNext(t.root)
		newRoot.insertIntCell(0, sepKey, sepChild)
		t.root = newRoot.id
		t.pg.unpin(newRoot)
	}
	return added, nil
}

// insert recursively descends from page id, which is the child in slot of
// parent (nil at the root). On child split it returns (split=true,
// separator key, new right sibling id) for the parent to absorb.
func (t *btree) insert(id pageID, parent *page, slot int, k, v []byte) (added, split bool, sepKey []byte, sepChild pageID, err error) {
	p, err := t.pg.get(id)
	if err != nil {
		return false, false, nil, 0, err
	}
	defer t.pg.unpin(p)

	if p.kind == pageLeaf {
		i, ok := leafSearch(p, k)
		if ok {
			// Replace: remove the old cell, then insert as if fresh so an
			// enlarged value can rebalance or split instead of overflowing.
			p.removeCell(i)
		}
		if p.makeRoom(6 + len(k) + len(v)) {
			p.insertLeafCell(i, k, v)
			return !ok, false, nil, 0, nil
		}
		if parent != nil {
			done, err := t.rebalanceInsert(parent, slot, p, i, k, v)
			if done || err != nil {
				return !ok, false, nil, 0, err
			}
		}
		rid, sep, err := t.splitLeafInsert(p, i, k, v)
		return !ok, err == nil, sep, rid, err
	}

	// Internal page: descend.
	cslot := intSearch(p, k)
	added, csplit, cSep, cChild, err := t.insert(p.childAt(cslot), p, cslot, k, v)
	if err != nil {
		return false, false, nil, 0, err
	}
	if !csplit {
		return added, false, nil, 0, nil
	}
	// Absorb child's separator: the new sibling sits right after the child.
	pos := cslot + 1
	if p.makeRoom(6 + len(cSep)) {
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

// A full leaf d and the incoming cell (k,v) that belongs at its slot pos are
// handled as one sequence of d.nkeys()+1 "virtual" cells: index pos is the
// incoming cell, and d's own cells keep their order around it.

// virtualSlot returns d's slot for virtual cell j != pos.
func virtualSlot(j, pos int) int {
	if j > pos {
		return j - 1
	}
	return j
}

// planCut decides how a full leaf d shares its virtual cells with a
// neighbour holding rBytes of cells (d's right sibling if toRight, else its
// left), cutting the pooled cells by bytes at the half as a split does. inc
// is the incoming cell's body and slot. The first c virtual cells go to the
// left page of the pair and the rest to the right; arriving is how many
// bytes the neighbour gains. ok is false when a side would not fit.
func planCut(d *page, rBytes int, toRight bool, pos, inc int) (c, arriving int, ok bool) {
	total := d.liveBytes() - pageHeaderSize + rBytes + inc
	left := 0
	if !toRight {
		left = rBytes
	}
	// The right page keeps at least one virtual cell: its first key is the
	// separator.
	for n := d.nkeys(); c < n; {
		cost := inc
		if c != pos {
			cost = d.slotLen(virtualSlot(c, pos)) + slotSize
		}
		left += cost
		c++
		if left >= total/2 {
			break
		}
	}
	right := total - left
	arriving = left - rBytes
	if toRight {
		arriving = right - rBytes
	}
	return c, arriving, c > 0 && left <= pageRoom && right <= pageRoom
}

// moveAcross carries out a planCut: the virtual cells on r's side of cut c
// move to r, the incoming cell lands in whichever page the cut leaves it.
// Only the cells that cross are copied, and r is compacted only if its gap
// cannot take them.
func moveAcross(d, r *page, toRight bool, pos, c, arriving int, k, v []byte) {
	if r.gap() < arriving {
		r.compact()
	}
	crosses := (pos >= c) == toRight // the incoming cell is on r's side
	dst, at := d, pos
	if toRight {
		from := virtualSlot(c, pos)
		if crosses {
			from = c
			dst, at = r, pos-c
		}
		r.takeCells(0, d, from, d.nkeys()-from)
	} else {
		m := c
		if crosses {
			m = c - 1
			dst, at = r, r.nkeys()+pos
		} else {
			at = pos - c
		}
		r.takeCells(r.nkeys(), d, 0, m)
	}
	dst.makeRoom(6 + len(k) + len(v))
	dst.insertLeafCell(at, k, v)
}

// rebalanceInsert is what a full leaf tries before it splits: p, the child
// in slot of parent, cannot take (k,v) at pos, so look at its right sibling
// under the same parent, then its left, and share cells with the first that
// is a leaf with rebalanceMinFree to spare. No page is allocated. It
// reports false, having touched nothing, when no sibling would do. Work is
// bounded: at most two siblings read, at most one rebalanced.
func (t *btree) rebalanceInsert(parent *page, slot int, p *page, pos int, k, v []byte) (bool, error) {
	for _, toRight := range [2]bool{true, false} {
		sib, sepSlot := slot-1, slot
		if toRight {
			sib, sepSlot = slot+1, slot+1
		}
		if sib < -1 || sib >= parent.nkeys() {
			continue
		}
		r, err := t.pg.get(parent.childAt(sib))
		if err != nil {
			return false, err
		}
		done := r.kind == pageLeaf && shareCells(parent, sepSlot, p, r, toRight, pos, k, v)
		t.pg.unpin(r)
		if done {
			t.rebalances.Add(1)
			return true, nil
		}
	}
	return false, nil
}

// shareCells rebalances the full leaf p and its sibling leaf r around the
// incoming cell and replaces the separator between them, cell sepSlot of
// parent. It reports false, having touched nothing, when r has less than
// rebalanceMinFree to spare, the cut would overfill a side, or parent
// cannot hold a longer separator.
func shareCells(parent *page, sepSlot int, p, r *page, toRight bool, pos int, k, v []byte) bool {
	rLive := r.liveBytes()
	if PageSize-rLive < rebalanceMinFree {
		return false
	}
	c, arriving, ok := planCut(p, rLive-pageHeaderSize, toRight, pos, 6+len(k)+len(v)+slotSize)
	if !ok {
		return false
	}
	// The separator is the right page's first key, virtual cell c,
	// whichever side p is on.
	sep := k
	if c != pos {
		sep = p.leafKey(virtualSlot(c, pos))
	}
	if !parent.replaceIntKey(sepSlot, sep) {
		return false
	}
	moveAcross(p, r, toRight, pos, c, arriving, k, v)
	return true
}

// splitLeafInsert splits leaf p with the new cell (k,v) at slot position
// pos logically included, redistributing by bytes so both halves fit: a
// rebalance with a fresh, empty right sibling. Returns the right sibling's
// id and the promoted separator (the right page's first key).
func (t *btree) splitLeafInsert(p *page, pos int, k, v []byte) (pageID, []byte, error) {
	right := t.pg.allocate(pageLeaf)
	defer t.pg.unpin(right)
	c, arriving, ok := planCut(p, 0, true, pos, 6+len(k)+len(v)+slotSize)
	if !ok {
		return 0, nil, fmt.Errorf("kvstore: leaf %d does not split in two (cell over maxPayload?)", p.id)
	}
	moveAcross(p, right, true, pos, c, arriving, k, v)
	right.setRight(p.right())
	p.setRight(right.id)
	t.splits.Add(1)
	return right.id, append([]byte(nil), right.leafKey(0)...), nil
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

	right := t.pg.allocate(pageInternal)
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

// delete removes k. Leaves may become under-full, even empty; a delete
// neither merges nor frees a page (DESIGN.md §4), matching Berkeley DB's
// behaviour under random deletes. The room is taken up again by inserts:
// into the leaf itself, or by a full neighbour's rebalanceInsert.
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
			next := p.childAt(intSearch(p, k))
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
		next := p.childAt(intSearch(p, k))
		t.pg.unpin(p)
		id = next
	}
}
