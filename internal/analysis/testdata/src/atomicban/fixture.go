package atomicban

import (
	"sync/atomic"
	a2 "sync/atomic"
	"unsafe"
)

// counters is the PR 8 metrics draft, verbatim in shape: fields bumped
// through the function API, which nothing stops the scrape path from
// also reading plainly.
type counters struct {
	requests uint64
	inFlight int64
	last     unsafe.Pointer
}

// True positives: every pointer-taking package function, whatever the
// operation and however the package is named.
func (c *counters) bump() {
	atomic.AddUint64(&c.requests, 1)              // want `call to atomic\.AddUint64: the pointer-taking sync/atomic functions are banned`
	atomic.StoreInt64(&c.inFlight, 0)             // want `call to atomic\.StoreInt64`
	_ = atomic.LoadUint64(&c.requests)            // want `call to atomic\.LoadUint64`
	_ = a2.CompareAndSwapInt64(&c.inFlight, 0, 1) // want `call to atomic\.CompareAndSwapInt64`
	_ = atomic.SwapPointer(&c.last, nil)          // want `call to atomic\.SwapPointer`
	_ = (atomic.LoadInt64)(&c.inFlight)           // want `call to atomic\.LoadInt64`
	c.requests++                                  // not flagged: the ban is on the calls above, which is what makes this line a race
}

// Sanctioned: the typed wrappers — methods, not package functions; the
// field cannot be read or written any other way.
type typed struct {
	requests atomic.Uint64
	inFlight atomic.Int64
	ready    atomic.Bool
	cur      atomic.Pointer[counters]
	any      atomic.Value
}

func (t *typed) bump() uint64 {
	t.requests.Add(1)
	t.inFlight.Store(0)
	t.ready.CompareAndSwap(false, true)
	t.cur.Store(&counters{})
	t.any.Store(1)
	return t.requests.Load()
}

// Sanctioned: a method that merely shares a banned function's name.
type ledger struct{ n uint64 }

func (l *ledger) AddUint64(d uint64) { l.n += d }

func useLedger(l *ledger) { l.AddUint64(1) }

// Suppressed: an audited exception, with its reason.
func legacyInterop(word *uint32) uint32 {
	return atomic.LoadUint32(word) //memexvet:ignore atomicban the word lives in a foreign struct whose layout is fixed
}
