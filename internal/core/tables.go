package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
)

// The four tables are typed records on the engine's kvstore, one small
// record per row, each key shaped for the readers that exist:
//
//	url/<url>             → uvarint id
//	v/<user><time><id>    → uvarint page ‖ uvarint ref ‖ uvarint privacy
//	b/<id>                → uvarint user ‖ uvarint page ‖ time ‖ uvarint len ‖ title ‖ folder
//	u/<id>                → empty
//
// <id> and <user> are ordered uints: one byte n (0…8), then the value's n
// bytes big-endian with no leading zero byte, so byte order is numeric
// order and no encoding is a prefix of another. <time> is the Unix
// nanosecond count, 8 bytes big-endian with the sign bit flipped. A page's
// url runs to the end of its key, a bookmark's folder to the end of the
// value. A page's title is fetched, not reported, so it lives with the
// page's other fetched facts in its tf/ record (derived.go), and no row
// is ever written twice. A bookmark's title is the one the user's bookmark
// file gave it, empty for a bookmark filed any other way. Every field has
// one encoding the decoders accept (no padded varint, no leading zero, no
// trailing byte), so whatever decodes re-encodes to the same bytes.
//
// A pages key is the url, so a URL has at most one record, and a site's
// pages sort together: a leaf stores their shared URL prefix once. A
// visits key leads with the user, so one user's visits in a time window
// are one key range (visitWindow) and every user's are a run in (time, id)
// order, which trail replay reads as it is (visitRows). Ids need no
// sequence record: reload's scans find the largest of each table.
const (
	pagesPrefix     = "url/"
	visitsPrefix    = "v/"
	bookmarksPrefix = "b/"
	usersPrefix     = "u/"
)

// table names one table's keyspace and its decoder.
type table[R any] struct {
	name, prefix string
	// decode inverts the table's encoder; k is the key after the prefix.
	decode func(k, v []byte) (R, error)
}

var (
	pagesTable     = table[pageRow]{"pages", pagesPrefix, decodePage}
	visitsTable    = table[visitRow]{"visits", visitsPrefix, decodeVisit}
	bookmarksTable = table[bookmarkRow]{"bookmarks", bookmarksPrefix, decodeBookmark}
	usersTable     = table[int64]{"users", usersPrefix, decodeUser}
)

// formatKey is the archive's format stamp, a record outside every table
// and the version store's keyspace. Its value is format, the one layout
// this build reads: the tables above, the vc/ derived records and cold
// tier (DESIGN.md §1), and the kvstore file under them. A change to any
// of them changes format; there is no migration.
const (
	formatKey = "fmt"
	format    = "memex/4"
)

// checkFormat stamps a store that holds no key and refuses any store not
// stamped with format: one of another format, or rows written before
// there was a stamp. It writes nothing to a store it refuses.
func checkFormat(kv *kvstore.Store) error {
	stamp, ok, err := kv.Get([]byte(formatKey))
	if err != nil {
		return fmt.Errorf("core: read the format stamp: %w", err)
	}
	if ok {
		if string(stamp) != format {
			return fmt.Errorf("core: archive is stamped %q, and this build reads only %q; there is no migration", stamp, format)
		}
		return nil
	}
	var found []byte
	if err := kv.Scan(nil, nil, func(k, _ []byte) bool {
		found = k
		return false
	}); err != nil {
		return fmt.Errorf("core: read the first key: %w", err)
	}
	if found != nil {
		return fmt.Errorf("core: archive holds %q but no format stamp (%q), so another build wrote it, and this build reads only %q; there is no migration", found, formatKey, format)
	}
	if err := kv.Put([]byte(formatKey), []byte(format)); err != nil {
		return fmt.Errorf("core: stamp the archive: %w", err)
	}
	return nil
}

type pageRow struct {
	id  int64
	url string
}

// visitRow is one visit; at is its time in Unix nanoseconds.
type visitRow struct {
	user, at, id int64
	page, ref    int64
	privacy      events.Privacy
}

type bookmarkRow struct {
	id, user, page, at int64
	title, folder      string
}

// record encodes the row as its table's key and value.
func (r pageRow) record() (key, value []byte) {
	return append([]byte(pagesPrefix), r.url...), binary.AppendUvarint(nil, uint64(r.id))
}

func (r visitRow) record() (key, value []byte) {
	k := appendOrdered([]byte(visitsPrefix), uint64(r.user))
	k = appendOrdered(appendTime(k, r.at), uint64(r.id))
	v := binary.AppendUvarint(make([]byte, 0, 8), uint64(r.page))
	v = binary.AppendUvarint(v, uint64(r.ref))
	v = binary.AppendUvarint(v, uint64(r.privacy))
	return k, v
}

func (r bookmarkRow) record() (key, value []byte) {
	v := binary.AppendUvarint(make([]byte, 0, 24+len(r.title)+len(r.folder)), uint64(r.user))
	v = binary.AppendUvarint(v, uint64(r.page))
	v = binary.AppendUvarint(appendTime(v, r.at), uint64(len(r.title)))
	v = append(append(v, r.title...), r.folder...)
	return appendOrdered([]byte(bookmarksPrefix), uint64(r.id)), v
}

func userRecord(id int64) (key, value []byte) {
	return appendOrdered([]byte(usersPrefix), uint64(id)), nil
}

var errRecord = errors.New("record does not decode")

// decodePage, decodeVisit, decodeBookmark and decodeUser invert the
// encoders above. k is the key after its table prefix. An error names the
// key in the table's terms when the key decodes, else in hex. Lengths are
// checked against the record before anything is sliced or allocated. A
// page id is at least 1, as the engine hands them out.
func decodePage(k, v []byte) (pageRow, error) {
	id, w := uvarint(v)
	if w <= 0 || w != len(v) || id == 0 || id > math.MaxInt64 {
		return pageRow{}, fmt.Errorf("key %q: %w", k, errRecord)
	}
	return pageRow{id: int64(id), url: string(k)}, nil
}

func decodeVisit(k, v []byte) (visitRow, error) {
	user, rest, ok := readOrdered(k)
	var at, id uint64
	if ok && len(rest) >= 8 {
		at = binary.BigEndian.Uint64(rest) ^ 1<<63
		id, rest, ok = readOrdered(rest[8:])
	} else {
		ok = false
	}
	if !ok || len(rest) != 0 {
		return visitRow{}, keyError(k)
	}
	r := visitRow{user: int64(user), at: int64(at), id: int64(id)}
	var f [3]uint64 // page, ref, privacy
	for i := 0; ok && i < len(f); i++ {
		var w int
		f[i], w = uvarint(v)
		if ok = w > 0; ok {
			v = v[w:]
		}
	}
	if !ok || len(v) != 0 {
		return visitRow{}, fmt.Errorf("key (user %d, time %s, id %d): %w", r.user, r.time().Format(time.RFC3339Nano), r.id, errRecord)
	}
	r.page, r.ref, r.privacy = int64(f[0]), int64(f[1]), events.Privacy(f[2])
	return r, nil
}

func decodeBookmark(k, v []byte) (bookmarkRow, error) {
	id, rest, ok := readOrdered(k)
	if !ok || len(rest) != 0 {
		return bookmarkRow{}, keyError(k)
	}
	r := bookmarkRow{id: int64(id)}
	user, w1 := uvarint(v)
	if w1 > 0 {
		page, w2 := uvarint(v[w1:])
		if w2 > 0 && len(v) >= w1+w2+8 {
			v = v[w1+w2:]
			at := binary.BigEndian.Uint64(v) ^ 1<<63
			v = v[8:]
			if size, w3 := uvarint(v); w3 > 0 && size <= uint64(len(v)-w3) {
				v = v[w3:]
				r.user, r.page, r.at = int64(user), int64(page), int64(at)
				r.title, r.folder = string(v[:size]), string(v[size:])
				return r, nil
			}
		}
	}
	return bookmarkRow{}, fmt.Errorf("key %d: %w", r.id, errRecord)
}

func decodeUser(k, v []byte) (int64, error) {
	id, rest, ok := readOrdered(k)
	if !ok || len(rest) != 0 {
		return 0, keyError(k)
	}
	if len(v) != 0 {
		return 0, fmt.Errorf("key %d: %d bytes of value where none belong: %w", int64(id), len(v), errRecord)
	}
	return int64(id), nil
}

func keyError(k []byte) error { return fmt.Errorf("key %x: %w", k, errRecord) }

// time is the visit's time as the engine hands it out.
func (r visitRow) time() time.Time { return time.Unix(0, r.at).UTC() }

// scan calls fn with every record of the table in [lo, hi), in key order,
// until fn returns false. A record that does not decode ends the scan with
// an error naming the table and the key: a partial answer with a nil error
// would look whole.
func (t table[R]) scan(kv *kvstore.Store, lo, hi []byte, fn func(R) bool) error {
	var bad error
	err := kv.Scan(lo, hi, func(k, v []byte) bool {
		r, err := t.decode(k[len(t.prefix):], v)
		if err != nil {
			bad = fmt.Errorf("core: table %q, %w", t.name, err)
			return false
		}
		return fn(r)
	})
	if err != nil {
		return err
	}
	return bad
}

// scanAll scans every record of the table.
func (t table[R]) scanAll(kv *kvstore.Store, fn func(R) bool) error {
	return t.scan(kv, []byte(t.prefix), prefixEnd([]byte(t.prefix)), fn)
}

// visitWindow is the key range of user's visits in the half-open window
// [from, to); a zero bound is open-ended.
func visitWindow(user int64, from, to time.Time) (lo, hi []byte) {
	run := appendOrdered([]byte(visitsPrefix), uint64(user))
	lo, hi = run, prefixEnd(run)
	if !from.IsZero() {
		lo = appendTime(append([]byte(nil), run...), from.UnixNano())
	}
	if !to.IsZero() {
		hi = appendTime(append([]byte(nil), run...), to.UnixNano())
	}
	return lo, hi
}

// visitsIn calls fn with user's visits in [from, to), in (time, id) order:
// one key range, nobody else's record read.
func (e *Engine) visitsIn(user int64, from, to time.Time, fn func(visitRow) bool) error {
	lo, hi := visitWindow(user, from, to)
	return visitsTable.scan(e.kv, lo, hi, fn)
}

// appendOrdered appends v as an ordered uint (see the layout above).
func appendOrdered(b []byte, v uint64) []byte {
	n := (bits.Len64(v) + 7) / 8
	b = append(b, byte(n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// readOrdered decodes an ordered uint from the front of b, refusing a
// length past 8, a short read and a leading zero byte.
func readOrdered(b []byte) (v uint64, rest []byte, ok bool) {
	if len(b) == 0 || b[0] > 8 || len(b) < 1+int(b[0]) {
		return 0, nil, false
	}
	n := int(b[0])
	if n > 0 && b[1] == 0 {
		return 0, nil, false
	}
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, b[1+n:], true
}

// appendTime appends Unix nanoseconds as 8 order-preserving bytes.
func appendTime(b []byte, nanos int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(nanos)^1<<63)
}

// prefixEnd is the smallest key above every key that starts with prefix
// (nil when there is none: prefix is all 0xff).
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
