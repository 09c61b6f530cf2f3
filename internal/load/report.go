package load

// The machine-readable half of the harness: one LOAD_<date>_<sha>.json
// report per run — what the SLO gate judged, kept as a CI artifact when it
// fails. WriteJSON's encoding is canonical: a report parsed back and
// re-emitted is byte-identical, which is what keeps any tool that reads
// them honest about the schema.

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaLoad identifies the LOAD_*.json schema version.
const SchemaLoad = "memex-load/2"

// KindReport is one request kind's view of the run, timed at the client
// from send to reply: how many were sent, their latency quantiles by
// nearest rank over every sample, and how many the server answered 4xx
// or 5xx. Kind is Kind.String(), the name bench's client.<kind>_*
// figures use.
type KindReport struct {
	Kind   string  `json:"kind"`
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	Err4xx int     `json:"err_4xx"`
	Err5xx int     `json:"err_5xx"`
}

// WriteAccounting is the harness-side outcome tally for write requests
// (visits). "Shed" is the polite path — 429/503 with Retry-After — and
// is not an SLO violation; everything under it is.
type WriteAccounting struct {
	Sent int `json:"sent"`
	OK   int `json:"ok"`
	Shed int `json:"shed"`
	// ShedNoRetryAfter counts 429/503 answers missing the Retry-After
	// header: backpressure the client cannot obey.
	ShedNoRetryAfter int `json:"shed_no_retry_after"`
	// Failed5xx counts non-shed 5xx answers (server faults).
	Failed5xx int `json:"failed_5xx"`
	// FailedOther counts 4xx answers and transport errors.
	FailedOther int `json:"failed_other"`
}

// Lost is the count of writes neither acknowledged nor politely shed.
func (w WriteAccounting) Lost() int { return w.Failed5xx + w.FailedOther }

// ReadAccounting is the harness-side outcome tally for read requests.
type ReadAccounting struct {
	Sent      int `json:"sent"`
	OK        int `json:"ok"`
	Shed      int `json:"shed"`
	Failed5xx int `json:"failed_5xx"`
	Failed    int `json:"failed"`
}

// Report is one load run's LOAD_*.json trajectory point.
type Report struct {
	Schema   string `json:"schema"`
	Date     string `json:"date"`
	Commit   string `json:"commit,omitempty"`
	Target   string `json:"target"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	// Host metadata, recorded for the same reason the bench trajectory
	// records it: shared CI hardware changes shape run to run, and a
	// quantile delta means nothing without knowing whether the floor
	// moved.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	DurationSec float64 `json:"duration_sec"`
	Requests    int     `json:"requests"`

	Writes WriteAccounting `json:"writes"`
	Reads  ReadAccounting  `json:"reads"`

	Kinds []KindReport `json:"kinds"`

	// EngineDroppedEvents is the run's delta of /api/status
	// EventsDropped, the queue's silent drop-oldest counter: data loss
	// admission control failed to prevent.
	EngineDroppedEvents uint64 `json:"engine_dropped_events"`

	SLO *SLOResult `json:"slo,omitempty"`
}

// Budget is the SLO the CI gate enforces. Zero values skip the
// respective latency check; the loss/5xx budgets are absolute counts
// (their useful value is 0).
type Budget struct {
	// P99StatusReadMs bounds the client-timed p99 of status reads
	// (0 = skip).
	P99StatusReadMs float64 `json:"p99_status_read_ms"`
	// MaxLost bounds writes lost without a 429/503 answer.
	MaxLost int `json:"max_lost"`
	// Max5xx bounds non-shed 5xx answers across reads and writes.
	Max5xx int `json:"max_5xx"`
}

// SLOResult is the applied budget plus its verdict, embedded in the
// report so a committed trajectory point carries the rule it was
// judged by.
type SLOResult struct {
	Budget     Budget   `json:"budget"`
	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// Evaluate applies the budget and records the verdict on the report.
// An empty violation list means the gate passes.
func Evaluate(r *Report, b Budget) SLOResult {
	var v []string
	if b.P99StatusReadMs > 0 {
		row, ok := r.Row(StatusRead)
		switch {
		case !ok || row.Count == 0:
			v = append(v, "no status samples in the run: the status-read SLO was not measured")
		case row.P99Ms > b.P99StatusReadMs:
			v = append(v, fmt.Sprintf("p99 status read %.2fms exceeds budget %.2fms", row.P99Ms, b.P99StatusReadMs))
		}
	}
	if lost := r.Writes.Lost(); lost > b.MaxLost {
		v = append(v, fmt.Sprintf("%d writes lost without a 429/503 answer (budget %d): %d failed 5xx, %d failed otherwise",
			lost, b.MaxLost, r.Writes.Failed5xx, r.Writes.FailedOther))
	}
	if r.Writes.ShedNoRetryAfter > 0 {
		v = append(v, fmt.Sprintf("%d shed writes answered without Retry-After", r.Writes.ShedNoRetryAfter))
	}
	if fivexx := r.Writes.Failed5xx + r.Reads.Failed5xx; fivexx > b.Max5xx {
		v = append(v, fmt.Sprintf("%d non-shed 5xx responses (budget %d)", fivexx, b.Max5xx))
	}
	if r.EngineDroppedEvents > 0 {
		v = append(v, fmt.Sprintf("%d events silently dropped by the queue despite admission control", r.EngineDroppedEvents))
	}
	res := SLOResult{Budget: b, Violations: v, Pass: len(v) == 0}
	r.SLO = &res
	return res
}

// Row finds one request kind's row.
func (r *Report) Row(k Kind) (KindReport, bool) {
	for _, row := range r.Kinds {
		if row.Kind == k.String() {
			return row, true
		}
	}
	return KindReport{}, false
}

// WriteJSON emits the canonical JSON encoding (indented, sorted keys
// per struct order, trailing newline). Canonical matters: the
// round-trip contract is byte equality.
func (r *Report) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
