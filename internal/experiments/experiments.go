// Package experiments regenerates every figure and falsifiable claim of
// the Memex paper (the per-experiment index lives in DESIGN.md §3). Each
// experiment is a pure function from a seed to a Report so that
// cmd/memex-bench and the root benchmark suite share one implementation.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report is one experiment's regenerated table.
type Report struct {
	ID    string
	Title string
	// Header and Rows form the printed table.
	Header []string
	Rows   [][]string
	// Claim restates what the paper asserts; Finding what we measured.
	Claim   string
	Finding string
	Elapsed time.Duration
	// Metrics exposes headline numbers for benchmark reporting.
	Metrics map[string]float64
}

// Print renders the report as an aligned text table.
func (r *Report) Print() {
	fmt.Printf("== %s — %s ==\n", r.ID, r.Title)
	fmt.Printf("claim: %s\n", r.Claim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Println("  " + strings.Join(parts, " | "))
	}
	printRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	fmt.Printf("finding: %s\n(elapsed %v)\n\n", r.Finding, r.Elapsed.Round(time.Millisecond))
}

// All runs every experiment in order.
func All(seed int64) []*Report {
	return []*Report{
		E1(seed), E2(seed), E3(seed), E4(seed), E5(seed),
		E6(seed), E7(seed), E8(seed), E9(seed), E10(seed),
	}
}

// ByID runs one experiment by id ("E1".."E10"), or nil for unknown ids.
func ByID(id string, seed int64) *Report {
	switch strings.ToUpper(id) {
	case "E1":
		return E1(seed)
	case "E2":
		return E2(seed)
	case "E3":
		return E3(seed)
	case "E4":
		return E4(seed)
	case "E5":
		return E5(seed)
	case "E6":
		return E6(seed)
	case "E7":
		return E7(seed)
	case "E8":
		return E8(seed)
	case "E9":
		return E9(seed)
	case "E10":
		return E10(seed)
	}
	return nil
}

// fmtF formats a float at 3 decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// fmtDur rounds a duration for display.
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// percentile returns the p-th percentile (0..100) of durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}
