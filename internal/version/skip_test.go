package version

import (
	"fmt"
	"math/bits"
	"testing"
)

// stallChain builds a single-shard store whose shard chain is depth
// layers deep above the watermark: epoch 1 publishes the probe key, an
// incomplete epoch 2 stalls the watermark there, and depth completed
// epochs pile up on top. Every snapshot read must descend past all of
// them to reach epoch 1 — the deep out-of-order chain walk the skip
// index exists for. The returned batch keeps the stall alive; the
// caller may Abort it to release the store.
func stallChain(t testing.TB, depth int) (*Store, *Batch) {
	s := NewStoreSharded(1)
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

// TestDeepChainGetLogProbes is the skip index's complexity contract: a
// Get under a watermark buried beneath n out-of-order layers descends
// in O(log n) probes, not n.
func TestDeepChainGetLogProbes(t *testing.T) {
	for _, depth := range []int{64, 256, 1024} {
		s, stall := stallChain(t, depth)
		st := s.current.Load()
		head := st.shards[0]
		if head == nil || head.epoch <= st.watermark {
			t.Fatalf("depth %d: chain did not stall above the watermark", depth)
		}
		l, probes := descendTo(head, st.watermark)
		if l == nil || l.epoch != 1 {
			t.Fatalf("depth %d: descendTo landed on %v, want epoch 1", depth, l)
		}
		// The greedy binary-lifting descent advances through at most a
		// handful of nodes per level; 4·log2(n)+4 is a loose static bound
		// that a linear walk (depth probes) blows through immediately.
		bound := 4*bits.Len(uint(depth)) + 4
		if probes > bound {
			t.Fatalf("depth %d: descent took %d probes, want ≤ %d (O(log n))", depth, probes, bound)
		}
		// And the read itself is correct: the stalled snapshot sees epoch
		// 1's value and none of the above-watermark writes.
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

// TestSkipLadderShape checks the binary-lifting invariant on a live
// chain: skips[0] is next, and skips[i] is skips[i-1]'s skips[i-1] — so
// level i jumps exactly 2^i layers on a fully linked chain.
func TestSkipLadderShape(t *testing.T) {
	s, stall := stallChain(t, 128)
	defer stall.Abort()
	st := s.current.Load()
	for l := st.shards[0]; l != nil; l = l.next {
		if l.next == nil {
			if len(l.skips) != 0 {
				t.Fatalf("epoch %d: tail layer has %d skips", l.epoch, len(l.skips))
			}
			continue
		}
		if len(l.skips) == 0 || l.skips[0] != l.next {
			t.Fatalf("epoch %d: skips[0] is not next", l.epoch)
		}
		for i := 1; i < len(l.skips); i++ {
			hop := l.skips[i-1]
			if i-1 >= len(hop.skips) || hop.skips[i-1] != l.skips[i] {
				t.Fatalf("epoch %d: skips[%d] is not skips[%d].skips[%d]", l.epoch, i, i-1, i-1)
			}
		}
	}
}

// BenchmarkDeepChainGet measures Snapshot.Get with the watermark buried
// under out-of-order layers — the serving-path cost the skip index
// collapses from O(depth) to O(log depth).
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
