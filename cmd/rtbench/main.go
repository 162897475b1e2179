// Command rtbench runs the full reproduction suite: every experiment from
// DESIGN.md's per-experiment index, printed as paper-style tables with the
// original claim alongside the measured rows.
//
// Usage:
//
//	rtbench            # run everything
//	rtbench E3 E11     # run selected experiments
//	rtbench trajectory # chain the paired deltas of the BENCH_pr*.json files in .
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == "trajectory" {
		if err := trajectory(os.Stdout, "."); err != nil {
			fmt.Fprintln(os.Stderr, "rtbench:", err)
			os.Exit(1)
		}
		return
	}
	want := map[string]bool{}
	for _, arg := range os.Args[1:] {
		want[arg] = true
	}
	all := experiments.All()
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		ran++
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n", e.Claim)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rows := e.Run()
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		for _, r := range rows {
			fmt.Printf("    %-42s %14.2f %s\n", r.Name, r.Value, r.Unit)
		}
		// Allocated is the cumulative allocation the experiment performed;
		// peak heap is the high-water mark of live heap the runtime saw.
		fmt.Printf("    (wall %.2fs, allocated %.1f MB, peak heap %.1f MB)\n\n",
			wall.Seconds(),
			float64(after.TotalAlloc-before.TotalAlloc)/(1<<20),
			float64(after.HeapSys-after.HeapReleased)/(1<<20))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rtbench: no experiment matched %v; available:\n", os.Args[1:])
		for _, e := range all {
			fmt.Fprintf(os.Stderr, "  %-5s %s\n", e.ID, e.Title)
		}
		os.Exit(1)
	}
}
