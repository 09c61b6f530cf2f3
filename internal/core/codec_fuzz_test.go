package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"memex/internal/events"
	"memex/internal/text"
)

// Corrupt-input fuzzing for the derived-record codecs. Both decoders face
// bytes read back from the cold tier, where a crash, a torn write or bit
// rot can hand them anything; the invariants under fuzz are (a) never
// panic, (b) never allocate beyond the payload's own size — a decoded
// count is bounded by the input length, so a flipped header byte cannot
// demand a 2^60-entry structure — and (c) whatever decodes successfully
// survives a re-encode unchanged.

// fuzzDict is a dictionary of 300 terms, enough for ids that take two
// varint bytes.
func fuzzDict() *text.Dict {
	d := text.NewDict()
	for i := 0; i < 300; i++ {
		d.ID(fmt.Sprintf("t%03d", i))
	}
	return d
}

// FuzzDecodeCounts fuzzes the whole tf/ record: the title ahead of the
// term counts, and the counts.
func FuzzDecodeCounts(f *testing.F) {
	d := fuzzDict()
	for _, r := range []struct {
		title string
		tf    map[string]int
	}{{"Okapi", map[string]int{"t000": 1, "t007": 2}}, {"", map[string]int{}}, {"Tapir\x00\xff", map[string]int{"t299": maxCount, "t128": 3}}} {
		blob, _ := encodeTF(r.title, text.VectorFromCounts(d, r.tf))
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xff})
	// Header claiming ~2^60 entries: the allocation-bound regression seed.
	f.Add(binary.AppendUvarint([]byte{0}, 1<<60))
	f.Add(append(binary.AppendUvarint([]byte{0}, 1<<60), 1, 1, 1))
	// A torn count, a zero delta after the first term (a repeated id), an
	// id past the dictionary, a padded varint, a count of 1 written the
	// long way, and a trailing byte.
	f.Add([]byte{0, 2, 1, 4})
	f.Add([]byte{0, 2, 1, 1})
	f.Add([]byte{0, 2, 1, 0, 2})
	f.Add([]byte{0, 1, 0xd9, 0x04})
	f.Add([]byte{0, 1, 0x81, 0x00})
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{0, 1, 2, 1})
	f.Add([]byte{0, 1, 1, 0})
	// A title running past the record, a padded title length and a title
	// length of 2^60.
	f.Add([]byte{5, 'O', 'k', 'a', 'p'})
	f.Add([]byte{0x80, 0x00, 0})
	f.Add(append(binary.AppendUvarint(nil, 1<<60), 'O', 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		title, tf := decodeTF(d, data)
		if tf.IDs == nil {
			if title != nil {
				t.Fatalf("%x is refused but decodes the title %q", data, title)
			}
			return // refused: reads as "no record"
		}
		// A term takes at least a byte, and one more unless its count is 1.
		need := len(title) + tf.Len()
		for _, c := range tf.Weights {
			if c != 1 {
				need++
			}
		}
		if need > len(data) {
			t.Fatalf("decoded a %d-byte title and %d entries (%d bytes at least) from %d bytes", len(title), tf.Len(), need, len(data))
		}
		again, _ := encodeTF(string(title), tf)
		if !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %q, %v, which encodes to %x", data, title, tf, again)
		}
	})
}

// FuzzDecodeIDSet fuzzes the adjacency record, which is its id deltas
// alone: the empty value is the known-empty set.
func FuzzDecodeIDSet(f *testing.F) {
	f.Add(encodeIDSet([]int64{1, 5, 9000000000}))
	f.Add([]byte{}) // known-empty: decodes to [] and encodes back to no byte
	f.Add([]byte{0xff})
	f.Add(binary.AppendUvarint(nil, 1<<60))
	// Id 0, a zero delta (a repeated id), a padded varint, a torn last
	// varint, and a delta past MaxInt64.
	f.Add([]byte{0})
	f.Add([]byte{1, 0})
	f.Add([]byte{0x81, 0x00})
	f.Add([]byte{1, 0x84})
	f.Add(binary.AppendUvarint([]byte{1}, 1<<63))
	// The largest id, and a varint past 2^64.
	f.Add(binary.AppendUvarint(nil, math.MaxInt64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, ok := decodeIDSet(data)
		if !ok {
			if ids != nil {
				t.Fatal("failed decode returned non-nil ids")
			}
			return
		}
		if ids == nil {
			t.Fatal("successful decode returned nil — breaks the known-empty contract")
		}
		if len(ids) != idSetLen(data) {
			t.Fatalf("%x decodes to %d ids, and idSetLen counts %d", data, len(ids), idSetLen(data))
		}
		if len(ids) > len(data) {
			t.Fatalf("decoded %d ids from %d bytes", len(ids), len(data))
		}
		if again := encodeIDSet(ids); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %v, which encodes to %x", data, ids, again)
		}
	})
}

// FuzzRowRecords holds the four table codecs to the same three invariants:
// a record read back from the kvstore — torn, bit-rotted or hostile — never
// panics its decoder; a length field cannot make the decoder allocate past
// the record's own size (strings are the only allocation, and their bytes
// are the record's key and value); and whatever decodes re-encodes to the
// same key and value. table picks the codec; key is the key after its
// table prefix.
func FuzzRowRecords(f *testing.F) {
	prefixes := []string{pagesPrefix, visitsPrefix, bookmarksPrefix, usersPrefix}
	seed := func(k, v []byte) {
		table := slices.IndexFunc(prefixes, func(p string) bool { return bytes.HasPrefix(k, []byte(p)) })
		f.Add(byte(table), k[len(prefixes[table]):], v)
	}
	seed(pageRow{id: 3, url: "http://zoo.example/okapi"}.record())
	seed(pageRow{id: 1 << 40, url: "http://zoo.example/"}.record())
	seed(visitRow{user: 7, at: tBase.UnixNano(), id: 300, page: 3, ref: 2, privacy: events.Community}.record())
	seed(visitRow{user: -1, at: -5, id: 1, page: 1 << 50}.record())
	seed(bookmarkRow{id: 9, user: 7, page: 3, at: tBase.UnixNano(), folder: "/animals/rainforest"}.record())
	seed(bookmarkRow{id: 10, user: 7, page: 4, at: tBase.UnixNano(), title: "Team wiki", folder: "/work"}.record())
	seed(userRecord(7))
	seed(userRecord(0))
	// A page with id 0, with an id past MaxInt64, with a padded varint id
	// and with a title after its id; a key with a leading zero byte, a key
	// length past 8, and trailing bytes.
	f.Add(byte(0), []byte("http://zoo.example/"), []byte{0, 'x'})
	f.Add(byte(0), []byte("http://zoo.example/okapi"), []byte{3, 'O', 'k', 'a', 'p', 'i'})
	f.Add(byte(0), []byte{1, 3}, binary.AppendUvarint(nil, 1<<63))
	f.Add(byte(0), []byte{}, []byte{0x81, 0x00})
	f.Add(byte(3), []byte{2, 0, 7}, []byte{})
	f.Add(byte(3), []byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{})
	f.Add(byte(1), append(append([]byte{1, 7}, make([]byte, 8)...), 1, 1), []byte{1, 0, 2, 0})
	f.Add(byte(2), []byte{1, 9}, []byte{7, 3, 1, 2})
	// A bookmark whose title runs past its value, with a padded title
	// length, and with no title length at all.
	f.Add(byte(2), []byte{1, 9}, append([]byte{7, 3, 0, 0, 0, 0, 0, 0, 0, 0}, 5, 'W', 'i'))
	f.Add(byte(2), []byte{1, 9}, append([]byte{7, 3, 0, 0, 0, 0, 0, 0, 0, 0}, 0x80, 0x00, '/'))
	f.Add(byte(2), []byte{1, 9}, []byte{7, 3, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, table byte, key, value []byte) {
		var prefix string
		var againKey, againValue []byte
		var strs int
		switch table % 4 {
		case 0:
			r, err := decodePage(key, value)
			if err != nil {
				return
			}
			againKey, againValue = r.record()
			prefix, strs = pagesPrefix, len(r.url)
		case 1:
			r, err := decodeVisit(key, value)
			if err != nil {
				return
			}
			againKey, againValue = r.record()
			prefix = visitsPrefix
		case 2:
			r, err := decodeBookmark(key, value)
			if err != nil {
				return
			}
			againKey, againValue = r.record()
			prefix, strs = bookmarksPrefix, len(r.title)+len(r.folder)
		case 3:
			id, err := decodeUser(key, value)
			if err != nil {
				return
			}
			againKey, againValue = userRecord(id)
			prefix = usersPrefix
		}
		if strs > len(key)+len(value) {
			t.Fatalf("decoded %d bytes of strings from a %d-byte key and a %d-byte value", strs, len(key), len(value))
		}
		if !bytes.Equal(againKey, append([]byte(prefix), key...)) || !bytes.Equal(againValue, value) {
			t.Fatalf("%s%x → %x decodes to a record that encodes to %x → %x", prefix, key, value, againKey, againValue)
		}
	})
}
