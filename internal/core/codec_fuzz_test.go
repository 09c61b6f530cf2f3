package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

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

func FuzzDecodeCounts(f *testing.F) {
	d := fuzzDict()
	for _, tf := range []map[string]int{{"t000": 1, "t007": 2}, {}, {"t299": 1 << 40, "t128": 3}} {
		blob, _ := encodeCounts(d, tf)
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	// Header claiming ~2^60 entries: the allocation-bound regression seed.
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(append(binary.AppendUvarint(nil, 1<<60), 1, 1, 1))
	// Truncated frames, a repeated id, an id past the dictionary, a padded
	// varint and a trailing byte.
	f.Add([]byte{2, 1, 1})
	f.Add([]byte{2, 1, 1, 0, 1})
	f.Add([]byte{1, 0xac, 0x02, 1})
	f.Add([]byte{1, 0x81, 0x00, 1})
	f.Add([]byte{1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tf := decodeCounts(d, data)
		if tf == nil {
			return
		}
		if 2*len(tf) > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(tf), len(data))
		}
		again, _ := encodeCounts(d, tf)
		if !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %v, which encodes to %x", data, tf, again)
		}
	})
}

func FuzzDecodeIDSet(f *testing.F) {
	f.Add(encodeIDSet([]int64{1, 5, 9000000000}))
	f.Add(encodeIDSet(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add([]byte{3, 1}) // count 3, payload 1
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
		if len(ids) > len(data) {
			t.Fatalf("decoded %d ids from %d bytes", len(ids), len(data))
		}
		// Re-encoding canonicalises (sort+dedupe); decoding that must be
		// stable: a second round trip reproduces it byte for byte.
		canon := encodeIDSet(ids)
		ids2, ok2 := decodeIDSet(canon)
		if !ok2 {
			t.Fatal("canonical re-encode failed to decode")
		}
		if !slices.IsSorted(ids2) {
			t.Fatalf("canonical decode not sorted: %v", ids2)
		}
		if !bytes.Equal(encodeIDSet(ids2), canon) {
			t.Fatal("canonical encoding not a fixed point")
		}
	})
}
