// Package load turns Go packages into analysis.Units without
// golang.org/x/tools: type information comes from the toolchain's own
// export data, obtained either via `go list -export -deps -json` (the
// analysistest fixture loader and the check that DefaultConfig names real
// types) or from the vet.cfg handed to a vet tool by `go vet -vettool`
// (vetcfg.go), which is how cmd/repolint runs. Only the standard library is
// required.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// runGoList invokes the go tool and decodes the JSON stream.
func runGoList(dir string, args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPackage
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds an importer lookup over the transitive export files.
func exportLookup(pkgs []*listPackage) (func(path string) (io.ReadCloser, error), map[string]string) {
	exports := map[string]string{}
	importMap := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return lookup, importMap
}

// Load lists, parses and type-checks the packages matching the patterns,
// returning a Unit per non-dependency match. Test files are not part of
// `go list -export` compilation units; the vet-tool mode covers them.
func Load(dir string, patterns ...string) ([]*analysis.Unit, error) {
	pkgs, err := runGoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
	}
	lookup, _ := exportLookup(pkgs)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)

	var units []*analysis.Unit
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		u, err := typecheck(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// LoadDir parses and type-checks a single directory of Go files as package
// path pkgPath — the analysistest fixture loader. The fixture may import
// only packages resolvable by the surrounding toolchain (in practice: the
// standard library).
func LoadDir(dir, pkgPath string) (*analysis.Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	parsed, imports, err := parseFiles(fset, dir, files)
	if err != nil {
		return nil, err
	}
	// Resolve the fixture's imports through the toolchain.
	var lookup func(string) (io.ReadCloser, error)
	if len(imports) > 0 {
		deps, err := runGoList(dir, imports...)
		if err != nil {
			return nil, err
		}
		lookup, _ = exportLookup(deps)
	} else {
		lookup = func(string) (io.ReadCloser, error) { return nil, fmt.Errorf("no imports") }
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	return typecheckParsed(fset, imp, pkgPath, parsed)
}

// parseFiles parses the named files and collects their import paths.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, []string, error) {
	var parsed []*ast.File
	seen := map[string]bool{}
	var imports []string
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	return parsed, imports, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*analysis.Unit, error) {
	names := make([]string, len(goFiles))
	for i, f := range goFiles {
		if filepath.IsAbs(f) {
			names[i] = f
		} else {
			names[i] = filepath.Join(dir, f)
		}
	}
	parsed, _, err := parseFiles(fset, "", names)
	if err != nil {
		return nil, err
	}
	return typecheckParsed(fset, imp, pkgPath, parsed)
}

func typecheckParsed(fset *token.FileSet, imp types.Importer, pkgPath string, parsed []*ast.File) (*analysis.Unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect best-effort info; first error returned below
	}
	pkg, err := conf.Check(pkgPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}
	return &analysis.Unit{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   parsed,
		Pkg:     pkg,
		Info:    info,
	}, nil
}
