package events

import (
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
