package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
	// last is the leaf the latest insert appended to (a key past every key
	// it held), or nilPage when the latest insert landed anywhere else: a
	// full leaf that takes a second append in a row splits at its end
	// (splitAtEnd).
	last pageID
	// The write path's scratch: a leaf laid out again is staged as cells
	// and built aside in img before it is copied over its page.
	cells, pool []cell
	img         [2]page
	sep         []byte // a rebalance's new separator
}

// rebalanceMinFree is the room a sibling must have before a full leaf sheds
// cells into it instead of splitting. Lower fills pages further and
// rebalances more often; DESIGN.md §4 "split last" has the table this value
// was chosen from.
const rebalanceMinFree = PageSize / 8

// metaRoot/metaFree/metaLSN offsets within the meta page payload.
// metaFreeOff held the head of a free-page list that nothing ever fed; it
// stays reserved, is written as 0 and must read 0. metaMagic names the
// page layout; Open refuses a file with any other (0 is a new file), and
// a change to the layout changes it.
const (
	metaMagicOff = 16
	metaRootOff  = 24
	metaFreeOff  = 28
	metaLSNOff   = 32
	metaCountOff = 40
	metaMagic    = 0x324d454d4558 // "MEMEX2": leaves store a key prefix
)

func (t *btree) loadMeta() (count uint64, lsn uint64, err error) {
	meta, err := t.pg.get(0)
	if err != nil {
		return 0, 0, err
	}
	defer t.pg.unpin(meta)
	if magic := binary.LittleEndian.Uint64(meta.buf[metaMagicOff:]); magic != 0 && magic != metaMagic {
		return 0, 0, fmt.Errorf("kvstore: data.db has magic %#x, and this build reads only %#x (MEMEX2, prefix leaves); there is no migration", magic, metaMagic)
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
// exact match was found. k meets the leaf's prefix once; the search then
// compares suffixes.
func leafSearch(p *page, k []byte) (int, bool) {
	pre, n := p.prefix(), p.nkeys()
	if !bytes.HasPrefix(k, pre) {
		// Every key begins with pre, so k sorts before them all or after.
		if bytes.Compare(k, pre) < 0 {
			return 0, false
		}
		return n, false
	}
	suffix := k[len(pre):]
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(p.leafSuffix(mid), suffix) {
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
		leaf.insertLeafCell(0, k, v) // under the empty prefix
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
		appends := !ok && i == p.nkeys()
		run := appends && t.last == p.id
		t.last = nilPage
		if appends {
			t.last = p.id
		}
		if ok {
			// Replace: remove the old cell, then insert as if fresh so an
			// enlarged value can rebalance or split instead of overflowing.
			p.removeCell(i)
		}
		if pre := p.prefix(); bytes.HasPrefix(k, pre) && p.makeRoom(leafCellSize(len(k)-len(pre), len(v))) {
			p.insertLeafCell(i, k[len(pre):], v)
			return !ok, false, nil, 0, nil
		}
		// The key needs a shorter prefix than p has, or p more room than it
		// has: lay p out again, under its cells' common prefix, if they fit.
		t.cells = stage(t.cells[:0], p, i, k, v)
		if leafSize(t.cells) <= PageSize {
			t.relay(t.cells, len(t.cells), p, nil)
			return !ok, false, nil, 0, nil
		}
		if run {
			rid := t.splitAtEnd(p, k, v)
			return true, true, append([]byte(nil), k...), rid, nil
		}
		if parent != nil {
			done, err := t.rebalanceInsert(parent, slot, p, t.cells)
			if done || err != nil {
				return !ok, false, nil, 0, err
			}
		}
		rid, sep, err := t.splitLeaf(p, t.cells)
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

// cell is a leaf cell staged for a new layout: its key is head ‖ tail (the
// prefix of the page it sits on and its suffix there, or nil and a whole
// incoming key), its value val, and body its encoded body on that page
// (nil for the incoming cell). All alias where the cell is, so a page is
// rebuilt aside and copied over only once nothing staged from it is read
// again (relay).
type cell struct{ head, tail, val, body []byte }

func (c *cell) keyLen() int { return len(c.head) + len(c.tail) }

// keyFrom returns the key from byte i on, in at most two parts.
func (c *cell) keyFrom(i int) (a, b []byte) {
	if i <= len(c.head) {
		return c.head[i:], c.tail
	}
	return c.tail[i-len(c.head):], nil
}

// appendKey appends the whole key to buf.
func (c *cell) appendKey(buf []byte) []byte { return append(append(buf, c.head...), c.tail...) }

// stage lists the cells of leaf p, with the incoming (k,v) among them at
// slot pos, onto cells.
func stage(cells []cell, p *page, pos int, k, v []byte) []cell {
	cells = appendCells(cells, p, 0, pos)
	cells = append(cells, cell{tail: k, val: v})
	return appendCells(cells, p, pos, p.nkeys())
}

// appendCells lists cells [from, to) of leaf p onto cells.
func appendCells(cells []cell, p *page, from, to int) []cell {
	pre, n := p.prefix(), len(cells)
	cells = slices.Grow(cells, to-from)[:n+to-from]
	for i := from; i < to; i++ {
		off := p.slotOffset(i)
		start, end := p.suffixAt(off)
		c := &cells[n+i-from]
		c.head, c.tail = pre, p.buf[start:end]
		c.body = p.buf[off : off+p.slotLen(i)]
		c.val = c.body[end-off:]
	}
	return cells
}

// commonPrefix returns the length of the longest common prefix of two
// cells' keys.
func commonPrefix(x, y *cell) int {
	n := 0
	xa, xb, ya, yb := x.head, x.tail, y.head, y.tail
	for {
		if len(xa) == 0 {
			xa, xb = xb, nil
		}
		if len(ya) == 0 {
			ya, yb = yb, nil
		}
		m := min(len(xa), len(ya))
		i := 0
		for i < m && xa[i] == ya[i] {
			i++
		}
		if n += i; i < m || m == 0 {
			return n
		}
		xa, ya = xa[m:], ya[m:]
	}
}

// leafSize returns the bytes a leaf laid out from cells (in key order, at
// least one) takes, header included: the longest common prefix of all of
// them is that of the first and the last, and is stored once.
func leafSize(cells []cell) int {
	plen := commonPrefix(&cells[0], &cells[len(cells)-1])
	size := pageHeaderSize + plen
	for i := range cells {
		size += slotSize + leafCellSize(cells[i].keyLen()-plen, len(cells[i].val))
	}
	return size
}

// relay lays leaf left out again from cells [0, c) and, unless it is nil,
// leaf right from the rest, each under its cells' common prefix. The
// caller has checked leafSize. Each image is built aside, in t.img, and
// copied over its page once both are built: the cells alias the pages.
func (t *btree) relay(cells []cell, c int, left, right *page) {
	build(&t.img[0], left, cells[:c])
	if right != nil {
		build(&t.img[1], right, cells[c:])
		right.buf = t.img[1].buf
		right.dirty = true
	}
	left.buf = t.img[0].buf
	left.dirty = true
}

// build writes into img the image of leaf p holding cells: p's id and
// right sibling, the cells' common prefix, then their suffixes in order.
func build(img, p *page, cells []cell) {
	plen := commonPrefix(&cells[0], &cells[len(cells)-1])
	// Only the header is cleared: the gap's bytes are dead.
	img.id, img.kind = p.id, pageLeaf
	clear(img.buf[:pageHeaderSize])
	img.buf[0] = pageLeaf
	img.setRight(p.right())
	first := &cells[0]
	if plen <= len(first.head) {
		img.setPrefix(first.head[:plen], nil)
	} else {
		img.setPrefix(first.head, first.tail[:plen-len(first.head)])
	}
	end := img.freeEnd()
	for i := range cells {
		c := &cells[i]
		if c.body != nil && len(c.head) == plen {
			// Under the prefix it had: the body as it was.
			end -= len(c.body)
			copy(img.buf[end:], c.body)
			img.setSlot(i, end, len(c.body))
			continue
		}
		a, b := c.keyFrom(plen)
		slen := len(a) + len(b)
		body := leafCellSize(slen, len(c.val))
		end -= body
		n := binary.PutUvarint(img.buf[end:], uint64(slen))
		n += copy(img.buf[end+n:], a)
		n += copy(img.buf[end+n:], b)
		copy(img.buf[end+n:], c.val)
		img.setSlot(i, end, body)
	}
	img.setFreeEnd(end)
	img.setNKeys(len(cells))
}

// cut decides where cells (in key order) part between two leaves: the cut,
// in [1, len(cells)), whose fuller side is least full, each side laid out
// under its own prefix. ok is false when that side does not fit a page.
// A side only grows as the cut moves away from it (a key that shortens
// its prefix lengthens every cell by what the prefix loses, and it is
// stored once), so the best cut is one of the two around where the sides
// cross.
func cut(cells []cell) (c int, ok bool) {
	n := len(cells)
	cross := 1 + sort.Search(n-1, func(i int) bool { return leafSize(cells[:i+1]) >= leafSize(cells[i+1:]) })
	fuller := PageSize + 1
	for _, at := range [2]int{cross - 1, cross} {
		if at < 1 || at >= n {
			continue
		}
		if m := max(leafSize(cells[:at]), leafSize(cells[at:])); m < fuller {
			c, fuller = at, m
		}
	}
	return c, fuller <= PageSize
}

// rebalanceInsert is what a full leaf tries before it splits: p, the child
// in slot of parent, cannot be laid out from cells (its own and the incoming
// one), so look at its right sibling under the same parent, then its left,
// and share cells with the first that is a leaf with rebalanceMinFree to
// spare. No page is allocated. It reports false, having touched nothing,
// when no sibling would do. Work is bounded: at most two siblings read, at
// most one rebalanced.
func (t *btree) rebalanceInsert(parent *page, slot int, p *page, cells []cell) (bool, error) {
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
		done := r.kind == pageLeaf && t.shareCells(parent, sepSlot, p, r, toRight, cells)
		t.pg.unpin(r)
		if done {
			t.rebalances.Add(1)
			return true, nil
		}
	}
	return false, nil
}

// shareCells pools the cells of p (the full leaf's, with the incoming one)
// and of its sibling leaf r, cuts them by bytes at the half as a split
// does, lays both pages out again, and replaces the separator between
// them, cell sepSlot of parent. It reports false, having touched nothing,
// when r has less than rebalanceMinFree to spare, the cut would overfill a
// side, or parent cannot hold a longer separator.
func (t *btree) shareCells(parent *page, sepSlot int, p, r *page, toRight bool, cells []cell) bool {
	if PageSize-r.liveBytes() < rebalanceMinFree {
		return false
	}
	left, right := p, r
	pool := t.pool[:0]
	if toRight {
		pool = appendCells(append(pool, cells...), r, 0, r.nkeys())
	} else {
		left, right = r, p
		pool = append(appendCells(pool, r, 0, r.nkeys()), cells...)
	}
	t.pool = pool
	c, ok := cut(pool)
	if !ok {
		return false
	}
	// The separator is the right page's first key.
	t.sep = pool[c].appendKey(t.sep[:0])
	if !parent.replaceIntKey(sepSlot, t.sep) {
		return false
	}
	t.relay(pool, c, left, right)
	return true
}

// splitLeaf splits leaf p, laying it and a fresh right sibling out from
// cells (its own and the incoming one) cut by bytes as a rebalance cuts
// them. Returns the right sibling's id and the promoted separator (the
// right page's first key).
func (t *btree) splitLeaf(p *page, cells []cell) (pageID, []byte, error) {
	c, ok := cut(cells)
	if !ok {
		return 0, nil, fmt.Errorf("kvstore: leaf %d does not split in two (cell over maxPayload?)", p.id)
	}
	right := t.pg.allocate(pageLeaf)
	defer t.pg.unpin(right)
	right.setRight(p.right())
	p.setRight(right.id)
	sep := cells[c].appendKey(nil)
	t.relay(cells, c, p, right)
	t.splits.Add(1)
	return right.id, sep, nil
}

// splitAtEnd is what a full leaf p does with its second append in a row:
// keys are arriving in ascending order, so p keeps its cells where they
// are, full, and a fresh right sibling takes only the incoming cell (k, v)
// and the appends that follow it. A split at the half would leave p half
// empty for good, since no later key of the run lands in it. Returns the
// sibling's id; its first key, k, is the separator.
func (t *btree) splitAtEnd(p *page, k, v []byte) pageID {
	right := t.pg.allocate(pageLeaf)
	defer t.pg.unpin(right)
	right.setRight(p.right())
	p.setRight(right.id)
	p.dirty = true
	right.insertLeafCell(0, k, v) // under the empty prefix
	t.last = right.id
	t.splits.Add(1)
	return right.id
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
