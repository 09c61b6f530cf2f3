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
// onto the last checkpointed tree image.
//
// Space: a leaf that cannot take a cell splits last. It first sheds cells
// into a sibling under the same parent that has room (btree.rebalanceInsert)
// and only when neither has does it split, so leaves settle near 0.8 full
// where a split-only tree sits at 0.5 (ascending keys) to 0.7 (random).
// Deletes do not merge or free pages; the leaf they leave under-full is
// refilled by its neighbours' overflow before any new page is allocated.
// The log is logical redo, so neither a split nor a rebalance is logged:
// both only dirty pages, which reach data.db by eviction or checkpoint.
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
	pageHeaderSize = 16 // kind(1) pad(1) nkeys(2) next(4) right(4) pad(4)
	slotSize       = 4  // offset(2) length(2) — length covers key+value
	// maxPayload caps key+value size per cell. Keeping cells at no more
	// than a quarter page guarantees that a byte-balanced split (which
	// redistributes cells *including* the incoming one) always leaves both
	// halves within page capacity: one page's cells plus one more, cut at
	// the half, overshoot it by less than a cell. A rebalance has no such
	// guarantee — it pools two pages' cells, up to 2⅛ pages' worth, and the
	// half plus a cell can exceed a page — so planCut checks both sides and
	// the caller falls back to the split.
	maxPayload = (PageSize - pageHeaderSize) / 4
	// pageRoom is what one page holds of cell bodies and their slots.
	pageRoom = PageSize - pageHeaderSize
)

// pageID identifies a page by index within the store file.
type pageID uint32

const nilPage pageID = 0 // page 0 is the meta page, never a tree node

// page is the in-memory image of one on-disk page. Cell layout is a slotted
// page: a slot directory grows from the header while cell bodies grow from
// the end of the page.
//
// Leaf cell body:     klen(2) vlen(4) key val
// Internal cell body: klen(2) child(4) key        (child holds keys >= key)
// Internal pages additionally store a leftmost child pointer in hdr.next.
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
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[0] = kind
	p.setFreeEnd(PageSize)
}

// freeEnd is the offset where the cell body area begins (bodies are packed
// toward the end of the page). Stored in bytes 12:14.
func (p *page) freeEnd() int { return int(binary.LittleEndian.Uint16(p.buf[12:14])) }
func (p *page) setFreeEnd(v int) {
	binary.LittleEndian.PutUint16(p.buf[12:14], uint16(v))
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

// leafKey returns the key of cell i on a leaf page. The returned slice
// aliases the page buffer and must not be retained across writes.
func (p *page) leafKey(i int) []byte {
	off := p.slotOffset(i)
	klen := int(binary.LittleEndian.Uint16(p.buf[off:]))
	return p.buf[off+6 : off+6+klen]
}

// leafVal returns the value of cell i on a leaf page (aliases the buffer).
func (p *page) leafVal(i int) []byte {
	off := p.slotOffset(i)
	klen := int(binary.LittleEndian.Uint16(p.buf[off:]))
	vlen := int(binary.LittleEndian.Uint32(p.buf[off+2:]))
	return p.buf[off+6+klen : off+6+klen+vlen]
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

// insertLeafCell inserts key/val at slot position pos, shifting later slots.
// The caller must have verified free space.
func (p *page) insertLeafCell(pos int, key, val []byte) {
	body := 6 + len(key) + len(val)
	off := p.freeEnd() - body
	binary.LittleEndian.PutUint16(p.buf[off:], uint16(len(key)))
	binary.LittleEndian.PutUint32(p.buf[off+2:], uint32(len(val)))
	copy(p.buf[off+6:], key)
	copy(p.buf[off+6+len(key):], val)
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
func (p *page) removeCell(i int) { p.removeCells(i, 1) }

func (p *page) removeCells(i, n int) {
	p.shiftSlots(i+n, -n)
	p.setNKeys(p.nkeys() - n)
	p.dirty = true
}

// takeCells moves cells [from, from+n) of src, in order, to slots [at, at+n)
// of p, body bytes copied page to page. The caller has verified that p's
// gap holds them.
func (p *page) takeCells(at int, src *page, from, n int) {
	p.shiftSlots(at, n)
	end := p.freeEnd()
	for j := 0; j < n; j++ {
		off, ln := src.slotOffset(from+j), src.slotLen(from+j)
		end -= ln
		copy(p.buf[end:], src.buf[off:off+ln])
		p.setSlot(at+j, end, ln)
	}
	p.setFreeEnd(end)
	p.setNKeys(p.nkeys() + n)
	p.dirty = true
	src.removeCells(from, n)
}

// compact rewrites the page, squeezing out dead cell bodies. Needed when
// freeSpace is low but live payload would still fit.
func (p *page) compact() {
	var tmp page
	tmp.init(p.id, p.kind)
	tmp.setNext(p.next())
	tmp.setRight(p.right())
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

// liveBytes returns the total bytes of live slot bodies plus directory.
func (p *page) liveBytes() int {
	total := pageHeaderSize + p.nkeys()*slotSize
	for i := 0; i < n(p); i++ {
		total += p.slotLen(i)
	}
	return total
}

func n(p *page) int { return p.nkeys() }

func (p *page) String() string {
	return fmt.Sprintf("page{id=%d kind=%d nkeys=%d free=%d}", p.id, p.kind, p.nkeys(), p.freeSpace())
}
