// Package analysis is ricsa's project-specific static-analysis suite: the
// machine-checked form of the invariants the last several PRs established
// by convention — the clock-injection contract (DESIGN §8), the
// zero-allocation frame data plane (§7.1), the atomic flat-counter
// telemetry discipline (§9), the byte-identical determinism contract
// the scenario engine depends on, and the rule that nothing ships that no
// main reaches (§12).
//
// Each check is an *Analyzer whose Run(pass) mirrors the shape of
// golang.org/x/tools/go/analysis so the suite can later ride
// `go vet -vettool`; the driver here is std-library only (go/ast,
// go/types, go/importer) so the module keeps its zero-dependency
// property. cmd/ricsa-lint is the command-line front end and CI gate.
//
// # Waivers
//
// A finding is suppressed by an in-source waiver that names its reason:
//
//	//ricsa:wallclock <reason>   waives clockdiscipline
//	//ricsa:allow <rule> <reason> waives any other rule
//
// placed either on the flagged line, on the line directly above it, or —
// for a whole-file waiver — before the package clause. A waiver without a
// reason is itself a finding (rule "waiver") and cannot be waived: the
// acceptance bar is zero unjustified escapes, not zero findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Facts carries cross-package knowledge gathered by Collect phases before
// any Run phase starts. Analyzers that need whole-program context (a field
// atomically accessed in one package and read plainly in another) record
// it here keyed by stable strings, never by types.Object identity — each
// type-check unit has its own object graph.
type Facts struct {
	// AtomicFields maps "pkgpath.Type.Field" (or "pkgpath.Var" for
	// package-level variables) to the position of one sync/atomic access,
	// recorded by atomicdiscipline's Collect phase.
	AtomicFields map[string]token.Position
	// Reach is the module-wide reference graph unreachable's Collect phase
	// builds and its first Run solves.
	Reach *reachGraph
}

// NewFacts returns an empty fact store shared by one driver invocation.
func NewFacts() *Facts {
	return &Facts{AtomicFields: map[string]token.Position{}, Reach: newReachGraph()}
}

// Pass is one analyzer's view of one type-checked package unit, mirroring
// x/tools' analysis.Pass closely enough that porting a check onto the
// official driver is mechanical.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the unit's import path. The external-test unit of package p
	// shares p's Path (it lives in p's directory and is subject to p's
	// rules).
	Path  string
	Facts *Facts

	waivers map[string]*fileWaivers // keyed by filename
	report  func(Finding)
}

// Analyzer is one named check. Collect (optional) runs over every unit
// before any Run, to gather cross-package Facts; Run reports findings.
type Analyzer struct {
	Name    string
	Doc     string
	Collect func(*Pass)
	Run     func(*Pass)
}

// Reportf emits a finding unless a waiver covers (rule, position).
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if w := p.waivers[position.Filename]; w != nil && w.covers(rule, position.Line) {
		return
	}
	p.report(Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether f is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// fileWaivers is one file's parsed waiver directives.
type fileWaivers struct {
	fileWide map[string]bool  // rule -> waived for the whole file
	lines    map[string][]int // rule -> waived line numbers
}

func (w *fileWaivers) covers(rule string, line int) bool {
	if w.fileWide[rule] {
		return true
	}
	for _, l := range w.lines[rule] {
		if l == line {
			return true
		}
	}
	return false
}

// waiverRule maps a directive name to the rule it waives; ricsa:allow
// waives the rule named in its first argument.
const (
	wallclockDirective = "ricsa:wallclock"
	allowDirective     = "ricsa:allow"
)

// parseWaivers scans a file's comments for waiver directives. Directives
// missing a reason are reported immediately via report (rule "waiver") —
// they do not suppress anything and cannot themselves be waived.
func parseWaivers(fset *token.FileSet, f *ast.File, report func(Finding)) *fileWaivers {
	w := &fileWaivers{fileWide: map[string]bool{}, lines: map[string][]int{}}
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comments never carry directives
			}
			text = strings.TrimSpace(text)
			var rule, reason string
			switch {
			case strings.HasPrefix(text, wallclockDirective):
				rule = "clockdiscipline"
				reason = strings.TrimSpace(strings.TrimPrefix(text, wallclockDirective))
			case strings.HasPrefix(text, allowDirective):
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				rule, reason, _ = strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			if rule == "" || reason == "" {
				report(Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Rule: "waiver", Message: "waiver directive requires a justification: " + c.Text})
				continue
			}
			if pos.Line < pkgLine {
				w.fileWide[rule] = true
				continue
			}
			// The directive covers its own line (trailing comment) and the
			// next line (comment above the flagged statement).
			w.lines[rule] = append(w.lines[rule], pos.Line, pos.Line+1)
		}
	}
	return w
}

// hasDirective reports whether a function's doc comment carries the given
// directive (e.g. "ricsa:noalloc").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves a selector's base identifier to the imported package
// it names, or nil if it is not a package qualifier.
func pkgNameOf(info *types.Info, x ast.Expr) *types.Package {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// SortFindings orders findings by file, line, column, then rule, so output
// is stable across runs — the linter obeys its own determinism rule.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{ClockDiscipline, HotPathAlloc, AtomicDiscipline, Determinism, Unreachable}
}
