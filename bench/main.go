// Command bench is the pipeline benchmark: four workloads that drive the
// Fig 2 wiring through core.Platform and report, per run, either the
// end-to-end metrics (untraced) or the per-layer metrics (traced). See
// README.md for what an op is, how each metric is defined and why each
// workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the machine and toolchain a number was taken on.
type fingerprint struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func machine() fingerprint {
	fp := fingerprint{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	return fp
}

// driverLine is the last line of standard output: the one JSON object the
// driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fresh_paced, ingest_drain, dash_mixed or adhoc_scan")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced (per-layer) run instead of the end-to-end one")
		aa      = flag.Int("aa", 0, "run two interleaved sets of this many passes over every workload and compare them")
		out     = flag.String("out", "", "also write the result (or the -aa table) as JSON to this file")
		spans   = flag.String("spans", ".bench_build/trace", "directory the traced run writes its spans to as JSON lines (empty: none)")
	)
	flag.Parse()
	fp := machine()
	fmt.Printf("machine: %s %s/%s GOMAXPROCS=%d cpus=%d cpu=%q\n", fp.GoVersion, fp.GOOS, fp.GOARCH, fp.GOMAXPROCS, fp.NumCPU, fp.CPUModel)

	d := time.Duration(*seconds * float64(time.Second))
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, d, fp, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var res *result
	var err error
	defs := endToEndDefs
	if *trace != 0 {
		defs = perLayerDefs
		res, err = runTraced(w, *seed, d, *spans)
	} else {
		res, err = runUntraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Print(report(res, defs))
	if *out != "" {
		if err := writeJSON(*out, struct {
			Machine fingerprint `json:"machine"`
			*result
		}{fp, res}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, def := range defs {
		line.Metrics[def.Name] = driverValue{res.Metrics[def.Name], def.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !res.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
