package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// benchFile is one committed BENCH_pr<N>.json: a PR's table of paired
// parent/change runs of the BENCHMARK.json workloads (ROADMAP, "How a perf
// claim is made").
type benchFile struct {
	PR        int    `json:"pr"`
	Parent    string `json:"parent"`
	Benchmark string `json:"benchmark"`
	Method    string `json:"method"`
	Machine   string `json:"machine"`
	Claim     *struct {
		Workload string `json:"workload"`
		Metric   string `json:"metric"`
	} `json:"claim"`
	Workloads map[string]struct {
		Seeds   []int `json:"seeds"`
		Failed  int   `json:"failed_or_incorrect_runs"`
		Metrics map[string]struct {
			ParentMedian float64    `json:"parent_median"`
			ParentIQR    [2]float64 `json:"parent_iqr"`
			ChangeMedian float64    `json:"change_median"`
			ChangeIQR    [2]float64 `json:"change_iqr"`
			DeltaFrac    float64    `json:"delta_frac"`
			BetterIn     string     `json:"better_in"`
			Bound        float64    `json:"bound"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// readBenchFile decodes one file strictly: an unknown key is schema drift.
func readBenchFile(path string) (f benchFile, err error) {
	r, err := os.Open(path)
	if err != nil {
		return f, err
	}
	defer r.Close()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return f, dec.Decode(&f)
}

// trajectory prints, per workload and end-to-end metric, the chain of paired
// deltas (with the share of pairs the change won) across dir's
// BENCH_pr*.json in PR order. Deltas only: absolute medians drift with the
// machine from one file to the next and do not chain.
func trajectory(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_pr*.json in %s: run from the repository root", dir)
	}
	files := make([]benchFile, len(paths))
	for i, p := range paths {
		if files[i], err = readBenchFile(p); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	slices.SortFunc(files, func(a, b benchFile) int { return a.PR - b.PR })
	chains := map[string]string{}
	for _, f := range files {
		for name, wl := range f.Workloads {
			for metric, m := range wl.Metrics {
				chains[name+"/"+metric] += fmt.Sprintf("  pr%d %+.1f%% (%s)", f.PR, 100*m.DeltaFrac, m.BetterIn)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(chains)) {
		fmt.Fprintf(w, "%-28s%s\n", k, chains[k])
	}
	return nil
}
