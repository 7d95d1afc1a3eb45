package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Unit is one type-checked collection of files: a package's compiled files
// plus its in-package tests, or (separately) its external _test package.
// Both units of a directory share the same Path so path-scoped rules apply
// to each.
type Unit struct {
	Path     string // import path within the module
	Rel      string // directory relative to the module root, slash-separated
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	TypeErrs []error
}

// Load enumerates every package of the module containing root, parses and
// type-checks each with the std-library source importer, and returns the
// units in deterministic (path-sorted) order. It always loads the whole
// module, because cross-package facts (the atomic access set, the
// reachability graph) are only sound over all of it; Select narrows the
// units a driver reports on.
//
// Type errors do not abort the load: the offending unit is still returned
// (with partial type info) so syntactic checks can run, and the errors are
// surfaced in TypeErrs for the driver to report. Directories named
// testdata, vendored trees, and hidden directories are skipped.
func Load(root string) ([]*Unit, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(modRoot)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	// One shared importer instance so each imported package is
	// type-checked from source at most once across the whole run.
	imp := importer.ForCompiler(fset, "source", nil)

	var units []*Unit
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		us, err := loadDir(fset, imp, dir, path)
		if err != nil {
			return nil, err
		}
		for _, u := range us {
			u.Rel = filepath.ToSlash(rel)
		}
		units = append(units, us...)
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].Path != units[j].Path {
			return units[i].Path < units[j].Path
		}
		// The compiled unit sorts before its external-test unit.
		return len(units[i].Files) > len(units[j].Files)
	})
	return units, nil
}

// NewPass wires a unit to an analyzer run, parsing waivers and reporting
// waiver hygiene findings through report exactly once per call.
func NewPass(u *Unit, facts *Facts, report func(Finding)) *Pass {
	return NewPassSplit(u, facts, report, report)
}

// NewPassSplit is NewPass with waiver-hygiene findings (rule "waiver")
// routed separately, so a driver running N analyzers over the same unit
// can surface each malformed waiver once instead of N times.
func NewPassSplit(u *Unit, facts *Facts, report, waiverReport func(Finding)) *Pass {
	p := &Pass{
		Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, Info: u.Info,
		Path: u.Path, Facts: facts,
		waivers: map[string]*fileWaivers{},
		report:  report,
	}
	for _, f := range u.Files {
		name := u.Fset.Position(f.Package).Filename
		p.waivers[name] = parseWaivers(u.Fset, f, waiverReport)
	}
	return p
}

func findModule(root string) (modRoot, modPath string, err error) {
	dir, err := filepath.Abs(root)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", root)
		}
		dir = parent
	}
}

// packageDirs lists each directory holding .go files once. The walk
// revisits a directory's files after its subdirectories (viz's tier.go
// sorts after viz/render/), so "differs from the last entry" is not enough.
func packageDirs(modRoot string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// Select returns the units matching patterns ("./..." style; "./x/..."
// prefix; "./x" exact; none means every unit).
func Select(units []*Unit, patterns []string) []*Unit {
	var out []*Unit
	for _, u := range units {
		if matchesAny(patterns, u.Rel) {
			out = append(out, u)
		}
	}
	return out
}

func matchesAny(patterns []string, rel string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		switch {
		case pat == "..." || pat == "":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case rel == pat:
			return true
		}
	}
	return false
}

// buildIncluded evaluates a file's //go:build constraint against the
// host's default configuration (GOOS/GOARCH/compiler tags, no "race"), so
// mutually exclusive tagged files — testutil's race_on.go/race_off.go —
// don't collide in one type-check unit.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				switch tag {
				case runtime.GOOS, runtime.GOARCH, runtime.Compiler, "unix":
					return true
				}
				// go1.N version tags up to the running toolchain.
				if v, ok := strings.CutPrefix(tag, "go1."); ok {
					if n, err := strconv.Atoi(v); err == nil {
						for _, rel := range build.Default.ReleaseTags {
							if rel == fmt.Sprintf("go1.%d", n) {
								return true
							}
						}
					}
				}
				return false
			})
		}
	}
	return true
}

// loadDir parses one directory and type-checks its up-to-two units.
func loadDir(fset *token.FileSet, imp types.Importer, dir, path string) ([]*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var compiled, external []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", filepath.Join(dir, name), err)
		}
		if !buildIncluded(f) {
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(name, "_test.go") {
			external = append(external, f)
			continue
		}
		compiled = append(compiled, f)
	}

	var units []*Unit
	if len(compiled) > 0 {
		units = append(units, typecheck(fset, imp, dir, path, path, compiled))
	}
	if len(external) > 0 {
		// As under go test, the external test package imports the package
		// compiled with its in-package test files (export_test.go).
		if len(units) > 0 {
			imp = withPackage{imp.(types.ImporterFrom), units[0].Pkg}
		}
		units = append(units, typecheck(fset, imp, dir, path, path+".test", external))
	}
	return units, nil
}

// withPackage is an importer that resolves one import path to an already
// type-checked package.
type withPackage struct {
	types.ImporterFrom
	pkg *types.Package
}

func (w withPackage) Import(path string) (*types.Package, error) {
	return w.ImportFrom(path, "", 0)
}

func (w withPackage) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == w.pkg.Path() {
		return w.pkg, nil
	}
	return w.ImporterFrom.ImportFrom(path, dir, mode)
}

func typecheck(fset *token.FileSet, imp types.Importer, dir, path, checkAs string, files []*ast.File) *Unit {
	u := &Unit{Path: path, Dir: dir, Fset: fset, Files: files}
	u.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { u.TypeErrs = append(u.TypeErrs, err) },
	}
	// Check never fails fatally here: conf.Error collects and continues,
	// leaving partial (but still useful) type info in u.Info.
	u.Pkg, _ = conf.Check(checkAs, fset, files, u.Info)
	return u
}
