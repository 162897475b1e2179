package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchFilesMatchSchema parses every BENCH_pr*.json committed at the
// repository root against benchFile — strictly, so a renamed or added key
// fails — and holds each to what BENCHMARK.json declares: every workload,
// every end-to-end metric with its bound, a better-in count per seed pair.
func TestBenchFilesMatchSchema(t *testing.T) {
	root := filepath.Join("..", "..")
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(root, "BENCH_pr*.json"))
	if len(paths) == 0 {
		t.Fatal("no BENCH_pr*.json at the repository root")
	}
	var (
		commit   = regexp.MustCompile(`^[0-9a-f]{40}$`)
		machine  = regexp.MustCompile(`^go1\.\d+\S* \S+/\S+ GOMAXPROCS=\d+ cpus=\d+ cpu=`)
		betterIn = regexp.MustCompile(`^(\d+)/(\d+)$`)
	)
	for _, p := range paths {
		name := filepath.Base(p)
		f, err := readBenchFile(p)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := fmt.Sprintf("BENCH_pr%d.json", f.PR); name != want {
			t.Errorf("%s: pr = %d, so the file should be %s", name, f.PR, want)
		}
		if !commit.MatchString(f.Parent) {
			t.Errorf("%s: parent %q is not a full commit id", name, f.Parent)
		}
		if !machine.MatchString(f.Machine) {
			t.Errorf("%s: machine %q is not the fingerprint bench/run.sh prints after \"machine: \"", name, f.Machine)
		}
		if f.Benchmark == "" || f.Method == "" {
			t.Errorf("%s: benchmark and method must be stated", name)
		}
		if c := f.Claim; c != nil {
			if _, ok := f.Workloads[c.Workload].Metrics[c.Metric]; !ok {
				t.Errorf("%s: claim names %s/%s, which the table does not hold", name, c.Workload, c.Metric)
			}
		}
		if len(f.Workloads) != len(decl.Workloads) {
			t.Errorf("%s: %d workloads, BENCHMARK.json declares %d", name, len(f.Workloads), len(decl.Workloads))
		}
		for _, w := range decl.Workloads {
			wl, ok := f.Workloads[w.Name]
			if !ok {
				t.Errorf("%s: workload %s missing", name, w.Name)
				continue
			}
			if len(wl.Seeds) == 0 || wl.Failed < 0 {
				t.Errorf("%s: %s: seeds %v, failed runs %d", name, w.Name, wl.Seeds, wl.Failed)
			}
			if len(wl.Metrics) != len(decl.EndToEnd) {
				t.Errorf("%s: %s: %d metrics, BENCHMARK.json declares %d", name, w.Name, len(wl.Metrics), len(decl.EndToEnd))
			}
			for _, m := range decl.EndToEnd {
				got, ok := wl.Metrics[m.Name]
				if !ok {
					t.Errorf("%s: %s/%s missing", name, w.Name, m.Name)
					continue
				}
				if got.Bound != m.Bound {
					t.Errorf("%s: %s/%s bound = %v, BENCHMARK.json says %v", name, w.Name, m.Name, got.Bound, m.Bound)
				}
				if sub := betterIn.FindStringSubmatch(got.BetterIn); sub == nil || sub[2] != fmt.Sprint(len(wl.Seeds)) {
					t.Errorf("%s: %s/%s better_in = %q, want n/%d", name, w.Name, m.Name, got.BetterIn, len(wl.Seeds))
				}
				if got.ParentMedian <= 0 || got.ChangeMedian <= 0 ||
					got.ParentIQR[0] > got.ParentIQR[1] || got.ChangeIQR[0] > got.ChangeIQR[1] {
					t.Errorf("%s: %s/%s medians and quartiles out of order: %+v", name, w.Name, m.Name, got)
				}
			}
		}
	}
}

// TestTrajectoryChainsDeltasInPROrder: one line per workload/metric, one
// link per file, ordered by PR number rather than by file name.
func TestTrajectoryChainsDeltasInPROrder(t *testing.T) {
	dir := t.TempDir()
	write := func(pr int, delta float64, better string) {
		body := fmt.Sprintf(`{"pr": %d, "claim": null, "workloads": {"w": {"seeds": [1], "metrics": {
			"m2": {"delta_frac": 0, "better_in": "0/1"},
			"m1": {"delta_frac": %v, "better_in": %q}}}}}`, pr, delta, better)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("BENCH_pr%d.json", pr)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(100, 0.25, "0/1") // sorts before pr21 by name
	write(21, -0.5, "1/1")
	var out strings.Builder
	if err := trajectory(&out, dir); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || strings.Join(strings.Fields(lines[0]), " ") != "w/m1 pr21 -50.0% (1/1) pr100 +25.0% (0/1)" ||
		!strings.HasPrefix(lines[1], "w/m2 ") {
		t.Errorf("trajectory printed:\n%s", out.String())
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_pr22.json"), []byte(`{"pr": 22, "machine_info": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := trajectory(&out, dir); err == nil || !strings.Contains(err.Error(), "BENCH_pr22.json") {
		t.Errorf("unknown key: err = %v, want one naming the file", err)
	}
}
