package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json, as far as the benchmark reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const selfCheckRuns = 5 // runs in each of the two sets

// selfCheck runs every workload in two sets of five runs, each run a
// process of its own with a seed of its own, and holds every end-to-end
// metric against the bound BENCHMARK.json (in the working directory) gives
// it: the gap between the two sets' medians, and the spread of the ten
// values — the distance between their quartiles as a share of their median
// — which must stay within the bound too for a regression of that size to
// be told from noise (set-up time excepted, which is gated on the medians
// alone). It returns the exit code: 1 when a gap or a spread exceeds its
// bound or a run failed an operation.
func selfCheck(out io.Writer) int {
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfCheckRuns; i++ {
				seed := 1 + s*selfCheckRuns + i
				cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.Itoa(seed))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				var res result
				if err == nil {
					lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
					err = json.Unmarshal(lines[len(lines)-1], &res)
				}
				if err != nil || res.Failed != 0 {
					fmt.Fprintf(out, "%s seed %d: %d operations failed (%v)\n", wl.name, seed, res.Failed, err)
					code = 1
					continue
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "%s\tunit\tmedian 1\tmedian 2\tgap\tspread\tbound\t\t\n", wl.name)
		for _, m := range spec.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			gap := (b - a) / a
			if gap < 0 {
				gap = -gap
			}
			all := append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			verdict := "ok"
			if gap > m.Bound || a == 0 || (spread > m.Bound && m.Name != "setup_s") {
				verdict = "FAIL"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t\n", m.Name, m.Unit, a, b, 100*gap, 100*spread, 100*m.Bound, verdict)
		}
		tw.Flush()
	}
	return code
}
