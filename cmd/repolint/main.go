// Repolint machine-checks the repo's concurrency and cache-coherence
// invariants (see internal/analysis): genbump, lockscope, sentinelerr,
// ctxflow, statscopy, iterclose. It runs as a vet tool, which covers test
// files and caches per package:
//
//	go build -o /tmp/repolint ./cmd/repolint
//	go vet -vettool=/tmp/repolint ./...
//
// Exit status is nonzero when any unsuppressed diagnostic is reported.
// Findings are suppressed line-by-line with a mandatory justification:
//
//	//lint:ignore <analyzer> <why this is safe / which contract covers it>
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

func main() {
	progname := filepath.Base(os.Args[0])
	version := flag.String("V", "", "print version and exit (cmd/go tool-ID handshake)")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (cmd/go vet handshake)")
	flag.Parse()

	// `go vet -vettool` handshake 1: tool identity for the build cache.
	if *version != "" {
		data, err := os.ReadFile(os.Args[0])
		if err != nil {
			fmt.Printf("%s version devel\n", progname)
			os.Exit(0)
		}
		fmt.Printf("%s version devel buildID=%x\n", progname, sha256.Sum256(data))
		os.Exit(0)
	}
	// Handshake 2: the flags the tool accepts (none are exposed to vet).
	if *printflags {
		fmt.Println("[]")
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "%s is a vet tool: go vet -vettool=$(which %s) ./...\n", progname, progname)
		os.Exit(2)
	}
	os.Exit(runVet(args[0], analysis.DefaultConfig(), analysis.Analyzers()))
}

// runVet analyzes one compilation unit described by a cmd/go vet.cfg.
func runVet(cfgPath string, cfg *analysis.Config, analyzers []*analysis.Analyzer) int {
	unit, vcfg, err := load.LoadVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	code := 0
	if unit != nil && !vcfg.VetxOnly {
		diags, err := analysis.Run(unit, cfg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			return 1
		}
		code = report(os.Stderr, diags)
	}
	if err := vcfg.WriteVetx(); err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	return code
}

func report(w io.Writer, diags []analysis.Diagnostic) int {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
