package load

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSelf lists, parses and type-checks a real repo package through
// the export-data pipeline that TestDefaultConfigResolves loads the repo
// through.
func TestLoadSelf(t *testing.T) {
	units, err := Load(".", "repro/internal/analysis")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("loaded %d units, want 1", len(units))
	}
	u := units[0]
	if u.Pkg.Path() != "repro/internal/analysis" {
		t.Fatalf("package path %q", u.Pkg.Path())
	}
	if len(u.Files) == 0 || u.Info == nil || u.Pkg.Scope().Lookup("Analyzer") == nil {
		t.Fatal("unit missing syntax, type info, or the Analyzer type")
	}
}

// TestVetConfigRoundTrip feeds LoadVetConfig a hand-built vet.cfg — the
// protocol cmd/go speaks to a -vettool — and checks the unit type-checks
// against toolchain export data and the completion marker is written.
func TestVetConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"errors\"\n\nvar Err = errors.New(\"x\")\n"
	goFile := filepath.Join(dir, "p.go")
	if err := os.WriteFile(goFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	// Export data for the dependency closure, as cmd/go would provide it.
	deps, err := runGoList(".", "errors")
	if err != nil {
		t.Fatal(err)
	}
	packageFile := map[string]string{}
	for _, d := range deps {
		if d.Export != "" {
			packageFile[d.ImportPath] = d.Export
		}
	}

	vetx := filepath.Join(dir, "p.vetx")
	cfg := VetConfig{
		ID:          "example/p",
		Compiler:    "gc",
		Dir:         dir,
		ImportPath:  "example/p",
		GoFiles:     []string{goFile},
		PackageFile: packageFile,
		VetxOutput:  vetx,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	unit, vcfg, err := LoadVetConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if unit == nil || unit.Pkg.Path() != "example/p" {
		t.Fatalf("unit = %+v", unit)
	}
	if unit.Pkg.Scope().Lookup("Err") == nil {
		t.Fatal("typecheck lost the Err sentinel")
	}
	if err := vcfg.WriteVetx(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx marker not written: %v", err)
	}
}
