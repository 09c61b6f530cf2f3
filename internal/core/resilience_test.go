package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/webcorpus"
)

// panickySource wraps a corpus source and panics on every k-th lookup —
// the class of failure §3 demands the server shrug off ("recovers from
// network and programming errors quickly, even if it has to discard a few
// client events"). The counter is atomic: the engine's analyzer workers
// call Lookup concurrently.
type panickySource struct {
	inner corpusSource
	every int64
	n     atomic.Int64
}

func (s *panickySource) Lookup(url string) (Content, bool) {
	n := s.n.Add(1)
	if s.every > 0 && n%s.every == 0 {
		panic(fmt.Sprintf("synthetic fetch crash on lookup %d", n))
	}
	return s.inner.Lookup(url)
}

func TestEngineSurvivesPanickingSource(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 15, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 20})
	e, err := Open(Config{
		Dir:    t.TempDir(),
		Source: &panickySource{inner: corpusSource{c}, every: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.pool.Logger = func(string, ...any) {} // silence expected restarts
	e.RegisterUser(1, "alice")

	for i, pid := range c.LeafPages[c.Leaves()[0].ID] {
		p := c.Page(pid)
		if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Duration(i)*time.Minute), events.Community); err != nil {
			t.Fatalf("RecordVisit: %v", err)
		}
	}
	// DrainBackground must terminate even though some events crashed
	// mid-processing (accounting is panic-safe).
	done := make(chan struct{})
	go func() {
		e.DrainBackground()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("DrainBackground wedged after demon panics")
	}

	// The engine must still work: most pages indexed, search alive.
	st := e.Status()
	if st.PagesIndexed == 0 {
		t.Fatal("nothing indexed despite most lookups succeeding")
	}
	if len(st.Demons) == 0 {
		t.Fatal("expected demon restarts to be recorded")
	}
	for name, d := range st.Demons {
		if d.Restarts == 0 || !strings.HasPrefix(d.LastPanic, "synthetic fetch crash") || d.LastPanicAt.IsZero() {
			t.Fatalf("Status.Demons[%s] = %+v, want the restart count and the last panic", name, d)
		}
	}
	// New events still flow end to end.
	p := c.Page(c.LeafPages[c.Leaves()[1].ID][0])
	if err := e.RecordVisit(1, p.URL, "", tBase.Add(time.Hour), events.Community); err != nil {
		t.Fatalf("post-crash RecordVisit: %v", err)
	}
	e.DrainBackground()
}

// TestQueueSheddingUnderOverload verifies the §3 behaviour: with a tiny
// queue and slow demons, a burst sheds oldest events rather than blocking
// the foreground, and the engine reports it.
func TestQueueSheddingUnderOverload(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 16, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 30})
	slow := &slowSource{inner: corpusSource{c}, delay: 3 * time.Millisecond}
	e, err := Open(Config{
		Dir:       t.TempDir(),
		Source:    slow,
		workers:   1,
		queueSize: 16, // deliberately tiny
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RegisterUser(1, "alice")

	start := time.Now()
	n := 0
	for _, p := range c.Pages {
		if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
			t.Fatalf("RecordVisit: %v", err)
		}
		n++
	}
	foreground := time.Since(start)
	// The foreground path must not have been throttled to demon speed: at
	// 3ms per fetch, processing n events inline would take n*3ms.
	if foreground > time.Duration(n)*time.Millisecond {
		t.Fatalf("foreground burst took %v for %d events: queue is blocking", foreground, n)
	}
	e.DrainBackground()
	if e.Status().EventsDropped == 0 {
		t.Fatal("expected overload to shed events")
	}
}

// TestDrainReturnsAfterClose: Close stops the analyzers with events still
// queued, and a DrainBackground after it returns instead of waiting for
// work no analyzer will do. The next Open fetches the pages it left.
func TestDrainReturnsAfterClose(t *testing.T) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 16, TopTopics: 2, SubPerTopic: 2, PagesPerLeaf: 30})
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Source: &slowSource{inner: corpusSource{c}, delay: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterUser(1, "alice")
	const visits = 50
	for _, p := range c.Pages[:visits] {
		if err := e.RecordVisit(1, p.URL, "", tBase, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		e.DrainBackground()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("DrainBackground still blocked 3s after Close")
	}

	e, err = Open(Config{Dir: dir, Source: corpusSource{c}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.DrainBackground()
	if got := e.Status().PagesIndexed; got != visits {
		t.Fatalf("PagesIndexed = %d after a reopen, want all %d visited pages", got, visits)
	}
}

type slowSource struct {
	inner corpusSource
	delay time.Duration
}

func (s *slowSource) Lookup(url string) (Content, bool) {
	time.Sleep(s.delay)
	return s.inner.Lookup(url)
}
