package core

import (
	"fmt"
	"reflect"
	"testing"

	"memex/internal/classify"
)

// TestParallelRetrainMatchesSequential: on the benchmark's world, retraining
// on several goroutines stores for every user the model one goroutine
// training the users in turn stores.
func TestParallelRetrainMatchesSequential(t *testing.T) {
	e, _, _ := replayWorld(t, benchWeb, benchSurf, 8000)
	snapshot := func() map[int64]*classify.Bayes {
		e.mu.RLock()
		defer e.mu.RUnlock()
		out := make(map[int64]*classify.Bayes, len(e.models))
		for u, m := range e.models {
			out[u] = m
		}
		return out
	}
	e.retrain(4)
	parallel := snapshot()
	e.retrain(1)
	sequential := snapshot()
	if len(parallel) < 10 || len(parallel) != len(sequential) {
		t.Fatalf("%d models trained in parallel, %d in turn", len(parallel), len(sequential))
	}
	for u, want := range sequential {
		if got := parallel[u]; got == want || !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d: the parallel retrain's model differs from the sequential one's", u)
		}
	}
}

// TestRetrainPanicReachesTheCaller: a trainer that panics on one goroutine
// panics RetrainClassifiers itself, once the other goroutines have
// finished, so the demon supervisor that runs it recovers and counts it;
// the users the other goroutines trained have their models.
func TestRetrainPanicReachesTheCaller(t *testing.T) {
	e, _, _ := replayWorld(t, benchWeb, benchSurf, 2000)
	e.mu.Lock()
	var victim int64
	for u := range e.models {
		victim = max(victim, u)
	}
	clear(e.models)
	e.mu.Unlock()
	e.trainHook = func(user int64) {
		if user == victim {
			panic(fmt.Sprintf("trainer of user %d failed", user))
		}
	}
	defer func() {
		e.trainHook = nil
		p := recover()
		if p != fmt.Sprintf("trainer of user %d failed", victim) {
			t.Fatalf("RetrainClassifiers raised %v, want the trainer's panic", p)
		}
		e.mu.RLock()
		defer e.mu.RUnlock()
		if e.models[victim] != nil || len(e.models) == 0 {
			t.Fatalf("after the panic: victim's model %v, %d models", e.models[victim] != nil, len(e.models))
		}
	}()
	e.retrain(2)
	t.Fatal("RetrainClassifiers returned after a trainer panicked")
}
