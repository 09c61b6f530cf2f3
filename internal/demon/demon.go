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

// Demon is a unit of background work. Run should block until Stop's
// channel closes; Tick-style demons can use RunPeriodic.
type Demon interface {
	Name() string
	Run(stop <-chan struct{})
}

// Pool supervises a set of demons.
type Pool struct {
	mu      sync.Mutex
	demons  []Demon
	stop    chan struct{}
	wg      sync.WaitGroup
	running bool
	status  map[string]Status // demons that have panicked, by name
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
		status: map[string]Status{},
		Logger: log.Printf,
	}
}

// Add registers a demon (before or after Start; late adds start at once if
// the pool is running).
func (p *Pool) Add(d Demon) {
	p.mu.Lock()
	p.demons = append(p.demons, d)
	running := p.running
	stop := p.stop
	p.mu.Unlock()
	if running {
		p.launch(d, stop)
	}
}

// Start launches every registered demon.
func (p *Pool) Start() {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.stop = make(chan struct{})
	demons := append([]Demon(nil), p.demons...)
	stop := p.stop
	p.mu.Unlock()
	for _, d := range demons {
		p.launch(d, stop)
	}
}

func (p *Pool) launch(d Demon, stop <-chan struct{}) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		streak := 0 // panics in a row
		for {
			started := time.Now()
			if done := p.runOnce(d, stop); done {
				return
			}
			if time.Since(started) >= restartCap {
				streak = 0
			}
			streak++
			delay := time.NewTimer(restartDelay(streak))
			select {
			case <-stop:
				delay.Stop()
				return
			case <-delay.C:
			}
		}
	}()
}

// runOnce executes d.Run, absorbing panics. Returns true when the demon
// exited cleanly (stop closed), false when it should be restarted.
func (p *Pool) runOnce(d Demon, stop <-chan struct{}) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			st := p.status[d.Name()]
			st.Restarts++
			st.LastPanic, st.LastPanicAt = fmt.Sprint(r), time.Now()
			p.status[d.Name()] = st
			p.mu.Unlock()
			p.Logger("demon %s panicked: %v (restarting)", d.Name(), r)
			done = false
		}
	}()
	d.Run(stop)
	return true
}

// Stop signals all demons and waits for them to exit.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	close(p.stop)
	p.mu.Unlock()
	p.wg.Wait()
}

// Status reports, for every demon that has panicked, how often it was
// restarted and what it last panicked with.
func (p *Pool) Status() map[string]Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.status)
}

// Periodic adapts a tick function into a Demon running every interval.
type Periodic struct {
	TaskName string
	Interval time.Duration
	Tick     func()
}

// Name implements Demon.
func (p *Periodic) Name() string { return p.TaskName }

// Run implements Demon.
func (p *Periodic) Run(stop <-chan struct{}) {
	interval := p.Interval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.Tick()
		}
	}
}

// Func adapts a plain function into a Demon.
type Func struct {
	TaskName string
	Body     func(stop <-chan struct{})
}

// Name implements Demon.
func (f *Func) Name() string { return f.TaskName }

// Run implements Demon.
func (f *Func) Run(stop <-chan struct{}) { f.Body(stop) }

// String aids debugging.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pool{demons=%d running=%v}", len(p.demons), p.running)
}
