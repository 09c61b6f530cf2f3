package events

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(16)
	for i := 0; i < 5; i++ {
		q.Push(Event{User: int64(i)})
	}
	for i := 0; i < 5; i++ {
		e, ok := q.Pop()
		if !ok || e.User != int64(i) {
			t.Fatalf("pop %d: %v ok=%v", i, e.User, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(16)
	for i := 0; i < 20; i++ {
		q.Push(Event{User: int64(i)})
	}
	if q.Len() != 16 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Dropped() != 4 {
		t.Fatalf("Dropped = %d", q.Dropped())
	}
	e, _ := q.Pop()
	if e.User != 4 {
		t.Fatalf("oldest surviving event = %d, want 4", e.User)
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue(16)
	done := make(chan Event, 1)
	go func() {
		e, ok := q.Pop()
		if ok {
			done <- e
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(Event{User: 7})
	select {
	case e := <-done:
		if e.User != 7 {
			t.Fatalf("got %d", e.User)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop never woke")
	}
}

func TestQueueCloseWakesConsumers(t *testing.T) {
	q := NewQueue(16)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.Pop(); ok {
				t.Error("Pop returned ok after close")
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	// Push after close is ignored.
	q.Push(Event{})
	if q.Len() != 0 {
		t.Fatal("push after close stored an event")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue(10000)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				q.Push(Event{User: base*1000 + i})
			}
		}(int64(p))
	}
	wg.Wait()
	if q.Len() != 800 {
		t.Fatalf("Len = %d, want 800", q.Len())
	}
}

func TestPrivacyString(t *testing.T) {
	if Off.String() != "off" || Private.String() != "private" || Community.String() != "community" {
		t.Fatal("Privacy strings wrong")
	}
	if Privacy(99).String() != "unknown" {
		t.Fatal("unknown privacy string wrong")
	}
}

// TestQueueMatchesSliceModel drives a queue and a plain slice with the
// same seeded pushes and pops — bursts long enough to overflow and wrap
// the ring many times over, drains that empty it — and checks after every
// step that both hold the same events in the same order and agree on
// Dropped.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, capacity := range []int{16, 17, 100} {
		q := NewQueue(capacity)
		var model []Event
		var dropped uint64
		next := int64(0)
		for step := 0; step < 20000; step++ {
			if rng.Intn(3) == 0 && len(model) > 0 {
				got, ok := q.Pop()
				if !ok || got != model[0] {
					t.Fatalf("cap %d step %d: Pop = %v, %v; model says %v", capacity, step, got, ok, model[0])
				}
				model = model[1:]
			} else {
				for burst := 1 + rng.Intn(2*capacity); burst > 0; burst-- {
					e := Event{Kind: VisitEvent, User: next, URL: strconv.FormatInt(next, 10)}
					next++
					q.Push(e)
					if len(model) == capacity {
						model = model[1:]
						dropped++
					}
					model = append(model, e)
				}
			}
			if q.Len() != len(model) || q.Dropped() != dropped {
				t.Fatalf("cap %d step %d: Len %d, Dropped %d; model %d, %d", capacity, step, q.Len(), q.Dropped(), len(model), dropped)
			}
		}
		for _, want := range model {
			if got, ok := q.Pop(); !ok || got != want {
				t.Fatalf("cap %d drain: Pop = %v, %v; model says %v", capacity, got, ok, want)
			}
		}
	}
}

// BenchmarkPop pops and pushes back one event at a standing depth: with
// a ring the cost is the same at an empty queue and at the benchmark
// preload's burst depth of 2 048.
func BenchmarkPop(b *testing.B) {
	for _, depth := range []int{0, 2048} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := NewQueue(4096)
			ev := Event{Kind: VisitEvent, User: 1, URL: "http://example.org/", Privacy: Community}
			for i := 0; i < depth; i++ {
				q.Push(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(ev)
				q.Pop()
			}
		})
	}
}
