package demon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolStartStop(t *testing.T) {
	p := NewPool()
	p.Logger = func(string, ...any) {}
	var ticks atomic.Int64
	p.Add(&Periodic{TaskName: "ticker", Interval: 5 * time.Millisecond, Tick: func() {
		ticks.Add(1)
	}})
	p.Start()
	time.Sleep(60 * time.Millisecond)
	p.Stop()
	n := ticks.Load()
	if n < 3 {
		t.Fatalf("ticks = %d, want several", n)
	}
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() != n {
		t.Fatal("demon still ticking after Stop")
	}
}

// TestPoolBacksOffAndRemembersPanic runs a demon that panics four times and
// then stays up: the pause before each restart must double, and Status must
// hold the count and the last panic, not the first.
func TestPoolBacksOffAndRemembersPanic(t *testing.T) {
	const panics = 4
	p := NewPool()
	p.Logger = func(string, ...any) {}
	var mu sync.Mutex
	var starts []time.Time
	up := make(chan struct{})
	p.Add(&Func{TaskName: "flaky", Body: func(stop <-chan struct{}) {
		mu.Lock()
		starts = append(starts, time.Now())
		n := len(starts)
		mu.Unlock()
		if n <= panics {
			panic(fmt.Sprintf("synthetic crash %d", n))
		}
		close(up)
		<-stop
	}})
	before := time.Now()
	p.Start()
	select {
	case <-up:
	case <-time.After(10 * time.Second):
		t.Fatal("demon never came back up")
	}
	p.Stop()

	if len(starts) != panics+1 {
		t.Fatalf("demon started %d times, want %d", len(starts), panics+1)
	}
	for i := 1; i < len(starts); i++ {
		// Timers fire late, never early: each gap is at least its delay.
		if gap, want := starts[i].Sub(starts[i-1]), restartDelay(i); gap < want {
			t.Errorf("restart %d came after %v, want at least %v", i, gap, want)
		}
	}
	st := p.Status()["flaky"]
	if st.Restarts != panics || st.LastPanic != "synthetic crash 4" {
		t.Fatalf("Status = %+v, want %d restarts and the last panic value", st, panics)
	}
	if st.LastPanicAt.Before(before) || st.LastPanicAt.After(time.Now()) {
		t.Fatalf("LastPanicAt = %v, outside the test's run", st.LastPanicAt)
	}
}

func TestRestartDelayDoublesToACap(t *testing.T) {
	if got := restartDelay(1); got != restartBase {
		t.Fatalf("first delay = %v, want %v", got, restartBase)
	}
	for streak := 2; streak < 64; streak++ {
		prev, got := restartDelay(streak-1), restartDelay(streak)
		if got != min(2*prev, restartCap) {
			t.Fatalf("delay after %d panics = %v, after %d = %v", streak-1, prev, streak, got)
		}
	}
}

func TestLateAddStartsImmediately(t *testing.T) {
	p := NewPool()
	p.Logger = func(string, ...any) {}
	p.Start()
	var ran atomic.Bool
	p.Add(&Func{TaskName: "late", Body: func(stop <-chan struct{}) {
		ran.Store(true)
		<-stop
	}})
	deadline := time.Now().Add(time.Second)
	for !ran.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	if !ran.Load() {
		t.Fatal("late-added demon never ran")
	}
}

func TestDoubleStartStopSafe(t *testing.T) {
	p := NewPool()
	p.Logger = func(string, ...any) {}
	p.Start()
	p.Start()
	p.Stop()
	p.Stop()
}
