// Package demon is the background-worker framework of Figure 3: the
// crawler/fetcher, indexer, classifier and theme demons run continually,
// decoupled from the foreground servlet path, coordinated through the
// loosely-consistent version store. A Pool supervises demons, restarting
// any that panic (§3: "the server recovers from network and programming
// errors quickly") — after a pause that doubles with every panic in a row,
// so a demon that cannot start does not spin — and remembers what each one
// last panicked with, and when, for Status.
package demon

import (
	"fmt"
	"log"
	"maps"
	"sync"
	"time"
)

// Pool supervises a set of demons. A demon starts when it is added, with
// Go or Every, and runs until Stop.
type Pool struct {
	mu       sync.Mutex
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	status   map[string]Status // demons that have panicked, by name
	// Logger receives supervision messages (defaults to log.Printf).
	Logger func(format string, args ...any)
}

// Status is what the pool remembers of one demon's failures.
type Status struct {
	// Restarts counts the panics the pool absorbed and restarted from.
	Restarts int
	// LastPanic is the most recent panic value, formatted, and LastPanicAt
	// when it was caught.
	LastPanic   string
	LastPanicAt time.Time
}

// A panicked demon restarts after restartBase, doubled for every panic in
// a row up to restartCap. A run that stayed up for restartCap counts as
// healthy and starts the sequence over.
const (
	restartBase = 50 * time.Millisecond
	restartCap  = 5 * time.Second
)

// restartDelay is the pause before the restart that follows the streak-th
// panic in a row (streak ≥ 1).
func restartDelay(streak int) time.Duration {
	d := restartBase
	for i := 1; i < streak && d < restartCap; i++ {
		d *= 2
	}
	return min(d, restartCap)
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		stop:   make(chan struct{}),
		status: map[string]Status{},
		Logger: log.Printf,
	}
}

// Go starts the demon name at once: body runs until the channel it is
// handed closes, at Stop, and then returns. A body that panics is
// restarted after the backoff.
func (p *Pool) Go(name string, body func(stop <-chan struct{})) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		streak := 0 // panics in a row
		for {
			started := time.Now()
			if done := p.runOnce(name, body); done {
				return
			}
			if time.Since(started) >= restartCap {
				streak = 0
			}
			streak++
			delay := time.NewTimer(restartDelay(streak))
			select {
			case <-p.stop:
				delay.Stop()
				return
			case <-delay.C:
			}
		}
	}()
}

// Every starts the demon name at once; it calls tick every interval
// (which must be positive) until Stop.
func (p *Pool) Every(name string, interval time.Duration, tick func()) {
	p.Go(name, func(stop <-chan struct{}) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				tick()
			}
		}
	})
}

// runOnce executes body, absorbing panics. Returns true when the demon
// exited cleanly (stop closed), false when it should be restarted.
func (p *Pool) runOnce(name string, body func(stop <-chan struct{})) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			st := p.status[name]
			st.Restarts++
			st.LastPanic, st.LastPanicAt = fmt.Sprint(r), time.Now()
			p.status[name] = st
			p.mu.Unlock()
			p.Logger("demon %s panicked: %v (restarting)", name, r)
			done = false
		}
	}()
	body(p.stop)
	return true
}

// Stop signals all demons and waits for them to exit. A second Stop
// returns at once.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Status reports, for every demon that has panicked, how often it was
// restarted and what it last panicked with.
func (p *Pool) Status() map[string]Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.status)
}
