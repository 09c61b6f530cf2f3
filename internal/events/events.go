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
	Kind Kind
	User int64
	URL  string
	// Referrer is the page a visit came from ("" when the client named
	// none).
	Referrer string
	Privacy  Privacy
}

// Queue is a bounded MPSC event queue with drop-oldest overflow semantics:
// producers never block (the foreground ack path stays fast) and the
// oldest unprocessed event is shed under overload. The events sit in a
// fixed ring, so a Push or a Pop is O(1) under the lock the visit path
// shares, whatever the queue's depth; a PopBatch is O(events taken).
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ring    []Event // capacity slots, allocated once
	head    int     // slot of the oldest queued event
	n       int     // queued events
	dropped uint64
	closed  bool
}

// NewQueue returns a queue holding at most capacity events (min 16).
func NewQueue(capacity int) *Queue {
	if capacity < 16 {
		capacity = 16
	}
	q := &Queue{ring: make([]Event, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues without blocking; under overflow the oldest event is
// dropped and counted. It reports whether the queue took e: a closed
// queue ignores it.
func (q *Queue) Push(e Event) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == len(q.ring) {
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		q.dropped++
	}
	q.ring[(q.head+q.n)%len(q.ring)] = e
	q.n++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// PopBatch appends to dst the queued events, oldest first, up to limit of
// them, blocking until at least one is available or the queue closes
// (ok=false). A consumer takes a burst in one turn of the lock and can
// then treat it as one group.
func (q *Queue) PopBatch(dst []Event, limit int) ([]Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return dst, false
	}
	for k := min(limit, q.n); k > 0; k-- {
		dst = append(dst, q.ring[q.head])
		q.ring[q.head] = Event{} // drop the strings the slot still holds
		q.head = (q.head + 1) % len(q.ring)
		q.n--
	}
	return dst, true
}

// Pop dequeues the next event: a PopBatch of one.
//
//memexvet:ignore reader read only by bench/layers.go, the benchmark ladder's events.pop_us rows, until ROADMAP item 32 moves it to PopBatch
func (q *Queue) Pop() (Event, bool) {
	var one [1]Event
	got, ok := q.PopBatch(one[:0], 1)
	if !ok {
		return Event{}, false
	}
	return got[0], true
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the queue's capacity (after the constructor's minimum
// clamp), so depth/capacity ratios computed by admission control match
// the bound Push actually enforces.
func (q *Queue) Cap() int {
	return len(q.ring)
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
