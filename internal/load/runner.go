package load

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"memex/internal/client"
)

// Options binds a scenario to a concrete target: the server URL and the
// page/query universes the schedule indices resolve against.
type Options struct {
	// Target is the server base URL, e.g. "http://localhost:8600".
	Target string
	// URLs is the page universe; must cover the scenario's Pages.
	URLs []string
	// Queries is the search-term universe; must cover Queries.
	Queries []string
	// Seed drives the schedule expansion.
	Seed int64
	// HTTPClient overrides the transport (tests, timeouts).
	HTTPClient *http.Client
	// Commit is recorded in the report (trajectory metadata).
	Commit string
}

// accounting tallies harness-side request outcomes and latency samples
// under one mutex; request rates here are far below contention territory.
type accounting struct {
	mu     sync.Mutex
	writes WriteAccounting
	reads  ReadAccounting
	kinds  [StatusRead + 1]kindTally // indexed by Kind
}

// kindTally is one request kind's send-to-reply latencies, one sample
// per request sent whatever its answer, and its 4xx/5xx counts.
type kindTally struct {
	ms             []float64
	err4xx, err5xx int
}

// outcome is the failure class of one request, derived from the typed
// client error: a 429/503 carrying Retry-After is a polite shed; one
// without the header, a non-shed 5xx, any other 4xx, and every
// transport error are the classes the SLO budgets bound.
type outcome int

const (
	outOK outcome = iota
	outShed
	outShedNoRetryAfter
	out5xx
	outOther
)

// classifyErr returns the request's outcome and the HTTP status the
// server answered with (0 for success and for transport errors).
func classifyErr(err error) (outcome, int) {
	if err == nil {
		return outOK, 0
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return outOther, 0
	}
	switch {
	case ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable:
		if ae.RetryAfter != "" {
			return outShed, ae.Status
		}
		return outShedNoRetryAfter, ae.Status
	case ae.Status >= 500:
		return out5xx, ae.Status
	default:
		return outOther, ae.Status
	}
}

func (a *accounting) record(k Kind, elapsed time.Duration, err error) {
	o, status := classifyErr(err)
	a.mu.Lock()
	defer a.mu.Unlock()
	t := &a.kinds[k]
	t.ms = append(t.ms, float64(elapsed)/float64(time.Millisecond))
	switch {
	case status >= 500:
		t.err5xx++
	case status >= 400:
		t.err4xx++
	}
	if k == Visit {
		a.writes.Sent++
		switch o {
		case outOK:
			a.writes.OK++
		case outShed:
			a.writes.Shed++
		case outShedNoRetryAfter:
			a.writes.ShedNoRetryAfter++
		case out5xx:
			a.writes.Failed5xx++
		default:
			a.writes.FailedOther++
		}
	} else {
		a.reads.Sent++
		switch o {
		case outOK:
			a.reads.OK++
		case outShed, outShedNoRetryAfter:
			a.reads.Shed++
		case out5xx:
			a.reads.Failed5xx++
		default:
			a.reads.Failed++
		}
	}
}

// rows builds one row per kind that sent anything, sorted by name.
func (a *accounting) rows() []KindReport {
	var out []KindReport
	for k := Visit; k <= StatusRead; k++ {
		t := a.kinds[k]
		if len(t.ms) == 0 {
			continue
		}
		sort.Float64s(t.ms)
		out = append(out, KindReport{
			Kind:   k.String(),
			Count:  len(t.ms),
			P50Ms:  nearestRank(t.ms, 50),
			P99Ms:  nearestRank(t.ms, 99),
			P999Ms: nearestRank(t.ms, 99.9),
			Err4xx: t.err4xx,
			Err5xx: t.err5xx,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// nearestRank is the p-th percentile (0 ≤ p ≤ 100) of ascending samples
// by nearest rank: the ⌈n·p/100⌉-th smallest, clamped to [1, n], with
// the rounding error of n·p/100 absorbed as bench's percentile absorbs
// it, so a LOAD_*.json p99 and bench's client.*_p99_ms are one
// definition. No samples give 0.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Run expands the scenario, replays it against the target with one
// goroutine per client, timing each request from send to reply, and
// distills the samples into a Report. The report carries no SLO
// verdict; apply Evaluate with a Budget.
func Run(sc Scenario, opt Options) (*Report, error) {
	if len(opt.URLs) < sc.Pages {
		return nil, fmt.Errorf("load: %d URLs for a %d-page scenario", len(opt.URLs), sc.Pages)
	}
	if len(opt.Queries) < sc.Queries {
		return nil, fmt.Errorf("load: %d queries for a %d-query scenario", len(opt.Queries), sc.Queries)
	}
	cl := client.New(opt.Target)
	if opt.HTTPClient != nil {
		cl = cl.WithHTTPClient(opt.HTTPClient)
	}

	// Setup phase, outside the measured window: health check (whose
	// EventsDropped is the baseline) and user registration.
	before, err := cl.Status()
	if err != nil {
		return nil, fmt.Errorf("load: target %s unreachable: %w", opt.Target, err)
	}
	for _, id := range sc.Users() {
		if err := cl.Register(id, fmt.Sprintf("load-%d", id)); err != nil {
			return nil, fmt.Errorf("load: register user %d: %w", id, err)
		}
	}

	schedule := sc.Schedule(opt.Seed)
	byClient := map[string][]Request{}
	for _, r := range schedule {
		byClient[r.Client] = append(byClient[r.Client], r)
	}
	names := make([]string, 0, len(byClient))
	for n := range byClient {
		names = append(names, n)
	}
	sort.Strings(names)

	acct := &accounting{}
	start := time.Now()
	var wg sync.WaitGroup
	for _, name := range names {
		reqs := byClient[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range reqs {
				if d := time.Until(start.Add(r.At)); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				var err error
				switch r.Kind {
				case Visit:
					ref := ""
					if r.Ref >= 0 {
						ref = opt.URLs[r.Ref]
					}
					err = cl.Visit(r.User, opt.URLs[r.Page], ref, sent, "community")
				case Search:
					_, err = cl.Search(r.User, opt.Queries[r.Query], 10)
				case StatusRead:
					_, err = cl.Status()
				}
				acct.record(r.Kind, time.Since(sent), err)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := cl.Status()
	if err != nil {
		return nil, fmt.Errorf("load: final status: %w", err)
	}

	return &Report{
		Schema:              SchemaLoad,
		Date:                time.Now().UTC().Format("2006-01-02"),
		Commit:              opt.Commit,
		Target:              opt.Target,
		Scenario:            sc.Name,
		Seed:                opt.Seed,
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		CPUs:                runtime.NumCPU(),
		DurationSec:         wall.Seconds(),
		Requests:            len(schedule),
		Writes:              acct.writes,
		Reads:               acct.reads,
		Kinds:               acct.rows(),
		EngineDroppedEvents: after.EventsDropped - before.EventsDropped,
	}, nil
}
