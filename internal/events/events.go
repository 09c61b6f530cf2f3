// Package events defines the client→server event stream of Figure 3 and
// the bounded queue that separates the foreground path (UI events must be
// acknowledged immediately) from the background demons (which may lag and,
// under overload, shed work rather than block the user — §3: "the server
// recovers … even if it has to discard a few client events").
package events

import "sync"

// Privacy is the per-event archiving mode the user selects in the client.
type Privacy int

const (
	// Off means the event must not be archived at all.
	Off Privacy = iota
	// Private archives for the user's own recall only.
	Private
	// Community archives for community-level mining.
	Community
)

func (p Privacy) String() string {
	switch p {
	case Off:
		return "off"
	case Private:
		return "private"
	case Community:
		return "community"
	}
	return "unknown"
}

// Kind discriminates event types.
type Kind int

const (
	// VisitEvent is a page view reported by the client tap.
	VisitEvent Kind = iota + 1
	// BookmarkEvent is a deliberate filing of a page into a folder.
	BookmarkEvent
)

// Event is one client action, reduced to what the analyzers read; the
// foreground path has already written the rest to the tables.
type Event struct {
	Kind    Kind
	User    int64
	URL     string
	Privacy Privacy
}

// Queue is a bounded MPSC event queue with drop-oldest overflow semantics:
// producers never block (the foreground ack path stays fast) and the
// oldest unprocessed event is shed under overload.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Event
	cap     int
	dropped uint64
	closed  bool
}

// NewQueue returns a queue holding at most capacity events (min 16).
func NewQueue(capacity int) *Queue {
	if capacity < 16 {
		capacity = 16
	}
	q := &Queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues without blocking; under overflow the oldest event is
// dropped and counted.
func (q *Queue) Push(e Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if len(q.buf) >= q.cap {
		copy(q.buf, q.buf[1:])
		q.buf = q.buf[:len(q.buf)-1]
		q.dropped++
	}
	q.buf = append(q.buf, e)
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop dequeues the next event, blocking until one is available or the
// queue closes (ok=false).
func (q *Queue) Pop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return Event{}, false
	}
	e := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf = q.buf[:len(q.buf)-1]
	return e, true
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Cap returns the queue's capacity (after the constructor's minimum
// clamp), so depth/capacity ratios computed by admission control match
// the bound Push actually enforces.
func (q *Queue) Cap() int {
	return q.cap
}

// Dropped returns the number of events shed under overload.
func (q *Queue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Close wakes all blocked consumers; subsequent pushes are ignored.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
