// Package kvstore implements a lightweight, persistent, ordered key-value
// store in the spirit of Berkeley DB: a single-file page-based B+tree with a
// buffer pool, a redo-only write-ahead log, and cursor-based range scans.
//
// Memex uses kvstore for fine-grained term-level statistics (postings,
// per-topic term counts, document vectors) where storing one row per term
// in the relational engine would have overwhelming space and time overheads
// (reproduced as experiment E5).
//
// Concurrency model: single writer, many readers, guarded by an RWMutex.
// Durability: committed batches are redo-logged; recovery replays the WAL
// onto the last checkpointed tree image, which is what data.db holds: a
// page reaches the file only in a checkpoint (no steal; see Pager).
//
// Space: a leaf that cannot take a cell splits last. It first shares cells
// with a sibling under the same parent that has room (btree.rebalanceInsert)
// and only when neither has does it split, so leaves settle near 0.8 full
// where a split-only tree sits at 0.5 (ascending keys) to 0.7 (random).
// Keys that arrive in ascending order fill their leaves whole: a full leaf
// that takes its second append in a row keeps its cells and a fresh right
// sibling takes the new one (btree.splitAtEnd), so an ascending load ends
// 0.99 full. Deletes do not merge or free pages; the leaf they leave
// under-full is refilled by its neighbours' overflow before any new page is
// allocated.
// The log is logical redo, so neither a split nor a rebalance is logged:
// both only dirty pages, which reach data.db at the next checkpoint.
//
// A leaf stores its keys' common prefix once and each cell only the rest of
// its key, behind a one-byte length (see page): keys here come in families
// (vc/r/tf/…, url/<url>, v/<user><time>) whose neighbours repeat all but
// their last bytes. A write that changes a leaf's prefix lays the leaf out again
// from its cells.
package kvstore

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed on-disk page size. All tree nodes occupy exactly one
// page. Keys and values must fit in a page with headers; larger values are
// rejected (Memex stores packed term statistics, which are small).
const PageSize = 4096

// Page kinds.
const (
	pageMeta = iota // page 0: store metadata
	pageLeaf
	pageInternal
)

const (
	pageHeaderSize = 16 // kind(1) pad(1) nkeys(2) next(4) right(4) freeEnd(2) plen(2)
	slotSize       = 4  // offset(2) length(2) — length covers the whole cell body
	// maxPayload caps key+value size per cell. Keeping cells at no more
	// than a quarter page guarantees that a byte-balanced split (which
	// redistributes cells *including* the incoming one) always leaves both
	// halves within page capacity: one page's cells plus one more, cut at
	// the half, overshoot it by less than a cell; and an incoming key that
	// does not share the leaf's prefix sorts before or after all of it, so
	// the cut beside it leaves the old cells together under their prefix.
	// A rebalance has no such guarantee — it pools two pages' cells, up to
	// 2⅛ pages' worth, and the half plus a cell can exceed a page — so cut
	// checks both sides and the caller falls back to the split.
	maxPayload = (PageSize - pageHeaderSize) / 4
	// pageRoom is what one page holds of cell bodies, their slots and a
	// leaf's prefix.
	pageRoom = PageSize - pageHeaderSize
)

// pageID identifies a page by index within the store file.
type pageID uint32

const nilPage pageID = 0 // page 0 is the meta page, never a tree node

// page is the in-memory image of one on-disk page. Cell layout is a slotted
// page: a slot directory grows from the header while cell bodies grow from
// the end of the page.
//
// Leaf page: the longest common prefix of its keys when they were last laid
// out, plen bytes (header bytes 14:16), fills the end of the page and the
// bodies grow down from it. A cell holds what follows the prefix:
//
//	leaf cell body:     uvarint(slen) suffix val   (key = prefix ‖ suffix)
//	internal cell body: klen(2) child(4) key        (child holds keys >= key)
//
// The value runs to the end of the body, whose length is the slot's; slen
// is one byte for every suffix under 128 bytes. Internal pages hold no
// prefix and store a leftmost child pointer in hdr.next.
type page struct {
	id    pageID
	kind  byte
	dirty bool
	buf   [PageSize]byte
}

func (p *page) nkeys() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *page) setNKeys(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p *page) next() pageID   { return pageID(binary.LittleEndian.Uint32(p.buf[4:8])) }
func (p *page) setNext(n pageID) {
	binary.LittleEndian.PutUint32(p.buf[4:8], uint32(n))
}

// right is the right-sibling pointer for leaves (scan chaining).
func (p *page) right() pageID { return pageID(binary.LittleEndian.Uint32(p.buf[8:12])) }
func (p *page) setRight(n pageID) {
	binary.LittleEndian.PutUint32(p.buf[8:12], uint32(n))
}

func (p *page) init(id pageID, kind byte) {
	p.id = id
	p.kind = kind
	clear(p.buf[:])
	p.buf[0] = kind
	p.setFreeEnd(PageSize)
}

// freeEnd is the offset where the cell body area begins (bodies are packed
// toward the end of the page). Stored in bytes 12:14.
func (p *page) freeEnd() int { return int(binary.LittleEndian.Uint16(p.buf[12:14])) }
func (p *page) setFreeEnd(v int) {
	binary.LittleEndian.PutUint16(p.buf[12:14], uint16(v))
}

// prefix returns the bytes every key of a leaf begins with (aliases the
// buffer); empty on internal pages.
func (p *page) prefix() []byte {
	return p.buf[PageSize-int(binary.LittleEndian.Uint16(p.buf[14:16])):]
}

// setPrefix stores a ‖ b as the prefix of p, which holds no cells.
func (p *page) setPrefix(a, b []byte) {
	plen := len(a) + len(b)
	binary.LittleEndian.PutUint16(p.buf[14:16], uint16(plen))
	copy(p.buf[PageSize-plen:], a)
	copy(p.buf[PageSize-len(b):], b)
	p.setFreeEnd(PageSize - plen)
}

func (p *page) slotOffset(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[pageHeaderSize+i*slotSize:]))
}

func (p *page) slotLen(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[pageHeaderSize+i*slotSize+2:]))
}

func (p *page) setSlot(i, off, ln int) {
	binary.LittleEndian.PutUint16(p.buf[pageHeaderSize+i*slotSize:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pageHeaderSize+i*slotSize+2:], uint16(ln))
}

// gap returns the contiguous bytes between the slot directory and the cell
// bodies; dead bodies elsewhere in the page are not in it until compact.
func (p *page) gap() int {
	return p.freeEnd() - (pageHeaderSize + p.nkeys()*slotSize)
}

// freeSpace returns bytes available for one more cell (slot + body).
func (p *page) freeSpace() int { return p.gap() - slotSize }

// makeRoom reports whether a cell body of need bytes (and its slot) can be
// inserted, compacting first when that is what it takes.
func (p *page) makeRoom(need int) bool {
	if p.freeSpace() < need && p.liveBytes()+need+slotSize <= PageSize {
		p.compact()
	}
	return p.freeSpace() >= need
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// leafCellSize is the body of a leaf cell holding a slen-byte key suffix
// and a vlen-byte value.
func leafCellSize(slen, vlen int) int { return uvarintLen(slen) + slen + vlen }

// suffixAt returns where the key suffix of the leaf cell whose body is at
// off lies.
func (p *page) suffixAt(off int) (start, end int) {
	slen, n := int(p.buf[off]), 1
	if slen >= 0x80 {
		v, m := binary.Uvarint(p.buf[off:])
		slen, n = int(v), m
	}
	return off + n, off + n + slen
}

// leafSuffix returns the key suffix of cell i on a leaf page (aliases the
// buffer).
func (p *page) leafSuffix(i int) []byte {
	start, end := p.suffixAt(p.slotOffset(i))
	return p.buf[start:end]
}

// leafKey returns the key of cell i on a leaf page, prefix and suffix, in
// a buffer of its own: unlike the suffix, the key is nowhere in the page.
func (p *page) leafKey(i int) []byte {
	pre, suffix := p.prefix(), p.leafSuffix(i)
	return append(append(make([]byte, 0, len(pre)+len(suffix)), pre...), suffix...)
}

// leafVal returns the value of cell i on a leaf page (aliases the buffer).
func (p *page) leafVal(i int) []byte {
	off := p.slotOffset(i)
	_, end := p.suffixAt(off)
	return p.buf[end : off+p.slotLen(i)]
}

// intKey returns the separator key of cell i on an internal page.
func (p *page) intKey(i int) []byte {
	off := p.slotOffset(i)
	klen := int(binary.LittleEndian.Uint16(p.buf[off:]))
	return p.buf[off+6 : off+6+klen]
}

// intChild returns the child pointer of cell i on an internal page.
func (p *page) intChild(i int) pageID {
	off := p.slotOffset(i)
	return pageID(binary.LittleEndian.Uint32(p.buf[off+2:]))
}

// childAt returns the child in slot i of an internal page; slot -1 is the
// leftmost child, held in hdr.next.
func (p *page) childAt(i int) pageID {
	if i < 0 {
		return p.next()
	}
	return p.intChild(i)
}

// replaceIntKey gives cell i of an internal page a new separator key,
// keeping its child. It reports false, having touched nothing, when the
// page cannot hold the longer key.
func (p *page) replaceIntKey(i int, key []byte) bool {
	off, old, body := p.slotOffset(i), p.slotLen(i), 6+len(key)
	if body > old {
		if p.liveBytes()-old+body > PageSize {
			return false
		}
		child := p.intChild(i)
		p.removeCell(i)
		p.makeRoom(body)
		p.insertIntCell(i, key, child)
		return true
	}
	binary.LittleEndian.PutUint16(p.buf[off:], uint16(len(key)))
	copy(p.buf[off+6:], key)
	p.setSlot(i, off, body)
	p.dirty = true
	return true
}

// insertLeafCell inserts the cell for a key whose suffix past the page's
// prefix is suffix at slot position pos, shifting later slots. The caller
// must have verified free space.
func (p *page) insertLeafCell(pos int, suffix, val []byte) {
	body := leafCellSize(len(suffix), len(val))
	off := p.freeEnd() - body
	n := binary.PutUvarint(p.buf[off:], uint64(len(suffix)))
	copy(p.buf[off+n:], suffix)
	copy(p.buf[off+n+len(suffix):], val)
	p.setFreeEnd(off)
	p.shiftSlots(pos, 1)
	p.setSlot(pos, off, body)
	p.setNKeys(p.nkeys() + 1)
	p.dirty = true
}

// insertIntCell inserts separator key with child pointer at slot pos.
func (p *page) insertIntCell(pos int, key []byte, child pageID) {
	body := 6 + len(key)
	off := p.freeEnd() - body
	binary.LittleEndian.PutUint16(p.buf[off:], uint16(len(key)))
	binary.LittleEndian.PutUint32(p.buf[off+2:], uint32(child))
	copy(p.buf[off+6:], key)
	p.setFreeEnd(off)
	p.shiftSlots(pos, 1)
	p.setSlot(pos, off, body)
	p.setNKeys(p.nkeys() + 1)
	p.dirty = true
}

// shiftSlots moves slot entries [pos, nkeys) by delta slot positions.
func (p *page) shiftSlots(pos, delta int) {
	n := p.nkeys()
	start := pageHeaderSize + pos*slotSize
	end := pageHeaderSize + n*slotSize
	if delta > 0 {
		copy(p.buf[start+delta*slotSize:end+delta*slotSize], p.buf[start:end])
	} else {
		copy(p.buf[start+delta*slotSize:], p.buf[start:end])
	}
}

// removeCell deletes slot i. Body space is reclaimed only by compact.
func (p *page) removeCell(i int) {
	p.shiftSlots(i+1, -1)
	p.setNKeys(p.nkeys() - 1)
	p.dirty = true
}

// compact rewrites the page, squeezing out dead cell bodies. Needed when
// freeSpace is low but live payload would still fit.
func (p *page) compact() {
	var tmp page
	tmp.init(p.id, p.kind)
	tmp.setNext(p.next())
	tmp.setRight(p.right())
	tmp.setPrefix(p.prefix(), nil)
	n := p.nkeys()
	for i := 0; i < n; i++ {
		off := p.slotOffset(i)
		ln := p.slotLen(i)
		noff := tmp.freeEnd() - ln
		copy(tmp.buf[noff:], p.buf[off:off+ln])
		tmp.setFreeEnd(noff)
		tmp.setSlot(i, noff, ln)
		tmp.setNKeys(i + 1)
	}
	copy(p.buf[:], tmp.buf[:])
	p.dirty = true
}

// liveBytes returns the total bytes of live slot bodies plus directory,
// header and prefix.
func (p *page) liveBytes() int {
	n := p.nkeys()
	total := pageHeaderSize + n*slotSize + len(p.prefix())
	for i := 0; i < n; i++ {
		total += p.slotLen(i)
	}
	return total
}

func (p *page) String() string {
	return fmt.Sprintf("page{id=%d kind=%d nkeys=%d free=%d}", p.id, p.kind, p.nkeys(), p.freeSpace())
}
