package version

import (
	"fmt"
	"testing"
)

// stallChain builds a store whose chain is depth layers deep above the
// watermark: epoch 1 publishes the probe key, an
// incomplete epoch 2 stalls the watermark there, and depth completed
// epochs pile up on top. Every snapshot read must descend past all of
// them to reach epoch 1. The returned batch keeps the stall alive; the
// caller may Abort it to release the store.
func stallChain(t testing.TB, depth int) (*Store, *Batch) {
	s := NewStore()
	b := s.Begin()
	b.Put("k", []byte("v1"))
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	stall := s.Begin() // epoch 2, never completed: watermark pins at 1
	for i := 0; i < depth; i++ {
		b := s.Begin()
		b.Put(fmt.Sprintf("x%06d", i), []byte("x"))
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	return s, stall
}

// TestDeepChainGet: a snapshot under a watermark buried beneath out-of-order
// layers reads epoch 1's value and none of the writes published above it.
func TestDeepChainGet(t *testing.T) {
	for _, depth := range []int{64, 256, 1024} {
		s, stall := stallChain(t, depth)
		st := s.current.Load()
		head := st.head
		if head == nil || head.epoch <= st.watermark {
			t.Fatalf("depth %d: chain did not stall above the watermark", depth)
		}
		if l := descendTo(head, st.watermark); l == nil || l.epoch != 1 {
			t.Fatalf("depth %d: descendTo landed on %v, want epoch 1", depth, l)
		}
		sn := s.Acquire()
		if v, ok := sn.Get("k"); !ok || string(v) != "v1" {
			t.Fatalf("depth %d: deep-chain Get = %q ok=%v", depth, v, ok)
		}
		if _, ok := sn.Get("x000000"); ok {
			t.Fatalf("depth %d: snapshot saw an above-watermark write", depth)
		}
		sn.Release()
		stall.Abort()
	}
}

// BenchmarkDeepChainGet measures Snapshot.Get with the watermark buried
// under out-of-order layers: a plain walk, linear in a depth the product
// bounds by its number of concurrent publishers.
func BenchmarkDeepChainGet(b *testing.B) {
	for _, depth := range []int{64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, stall := stallChain(b, depth)
			defer stall.Abort()
			sn := s.Acquire()
			defer sn.Release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sn.Get("k"); !ok {
					b.Fatal("lost the key")
				}
			}
		})
	}
}
