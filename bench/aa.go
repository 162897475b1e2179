package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The -aa mode answers one question before any bound is trusted: do two
// sets of runs of the same binary agree? It runs set A and set B
// interleaved (A1 B1 A2 B2 ...), every run a fresh process on its own seed
// as the driver does it, and prints per workload and metric both medians,
// how far B's is on the worse side of A's, each set's quartile spread and a
// verdict against the metric's bound.

// aaRow is one line of the table.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative: B is better).
	Worse float64 `json:"worse_frac"`
	// Spread is the larger of the two sets' interquartile ranges over
	// their medians.
	Spread  float64 `json:"spread_frac"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), since
// that is what the driver judges the benchmark's spread with.
func quartiles(v []float64) (q1, q3 float64) {
	data := sortedCopy(v)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return at(1), at(3)
}

// midMedian is the textbook median (mean of the middle two for an even
// count), again matching the driver.
func midMedian(v []float64) float64 {
	data := sortedCopy(v)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

func spreadOf(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / midMedian(v)
}

// verdict grades a metric: "ok" when the sets differ by at most half the
// bound and neither spreads past a third of it, "FAIL" when either exceeds
// the bound itself (the driver would refuse the benchmark), "tight" in
// between — a longer run or a better estimator is due before the bound is
// widened.
func verdict(worse, spread, bound float64) string {
	switch {
	case worse > bound || spread > bound:
		return "FAIL"
	case worse > bound/2 || spread > bound/3:
		return "tight"
	default:
		return "ok"
	}
}

// runSelf runs one untraced run of this binary in a fresh process and
// returns the driver line it printed.
func runSelf(workload string, seed int64, d time.Duration) (*driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(d.Seconds(), 'f', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	return &line, nil
}

// runAA runs the two interleaved sets and prints the table. It returns the
// process exit code: 1 if any run failed or any metric's verdict is FAIL.
func runAA(k int, seed int64, d time.Duration, fp fingerprint, out string) int {
	if k < 5 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 5 passes per set")
		return 2
	}
	// values[workload][metric][set] is the list of that set's results.
	values := map[string]map[string]*[2][]float64{}
	for pass := 0; pass < k; pass++ {
		for set := 0; set < 2; set++ {
			runSeed := seed + int64(2*pass+set)
			for _, w := range workloads {
				line, err := runSelf(w.name, runSeed, d)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				fmt.Printf("%c%d %-13s seed=%d attempted=%d failed=%d\n", 'A'+set, pass+1, w.name, runSeed, line.Attempted, line.Failed)
				if values[w.name] == nil {
					values[w.name] = map[string]*[2][]float64{}
				}
				for name, v := range line.Metrics {
					if values[w.name][name] == nil {
						values[w.name][name] = &[2][]float64{}
					}
					sets := values[w.name][name]
					sets[set] = append(sets[set], v.Value)
				}
			}
		}
	}

	var rows []aaRow
	code := 0
	fmt.Printf("\n%-13s %-16s %13s %13s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEndDefs {
			sets := values[w.name][def.Name]
			a, b := midMedian(sets[0]), midMedian(sets[1])
			worse := (b - a) / a
			if def.Better == higher {
				worse = -worse
			}
			row := aaRow{
				Workload: w.name, Metric: def.Name, Unit: def.Unit, MedianA: a, MedianB: b, Worse: worse,
				Spread: math.Max(spreadOf(sets[0]), spreadOf(sets[1])), Bound: def.Bound,
			}
			row.Verdict = verdict(row.Worse, row.Spread, row.Bound)
			// setup_s is exempt from the spread rule (the driver exempts it
			// too); only its medians have to agree.
			if def.Name == "setup_s" {
				row.Verdict = verdict(row.Worse, 0, row.Bound)
			}
			if row.Verdict == "FAIL" {
				code = 1
			}
			rows = append(rows, row)
			fmt.Printf("%-13s %-16s %13.5g %13.5g %+8.3f %8.3f %6.2f  %s\n",
				row.Workload, row.Metric, row.MedianA, row.MedianB, row.Worse, row.Spread, row.Bound, row.Verdict)
		}
	}
	if out != "" {
		err := writeJSON(out, struct {
			Machine fingerprint `json:"machine"`
			Passes  int         `json:"passes_per_set"`
			Seed    int64       `json:"first_seed"`
			Seconds float64     `json:"seconds"`
			Rows    []aaRow     `json:"rows"`
		}{fp, k, seed, d.Seconds(), rows})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}
