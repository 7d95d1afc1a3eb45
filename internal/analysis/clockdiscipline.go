package analysis

import (
	"go/ast"
	"strings"
)

// controlPlanePkgs are the packages bound by the clock-injection contract
// (DESIGN §8): every control loop in them must pace itself on an injected
// clock.Clock so the scenario engine's virtual clock can drive the whole
// live stack deterministically.
var controlPlanePkgs = []string{
	"ricsa/internal/cm",
	"ricsa/internal/steering",
	"ricsa/internal/transport",
	"ricsa/internal/scenario",
	"ricsa/internal/fcp",
	"ricsa/internal/webui",
}

// bannedClockCalls are the time-package entry points that read or wait on
// the wall clock. time.Tick and time.NewTicker are doubly banned: even the
// clock package offers no ticker (an auto-rearming ticker hides the
// "work finished" edge the virtual clock's rendezvous needs).
var bannedClockCalls = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

const clockPkgPath = "ricsa/internal/clock"

func inControlPlane(path string) bool {
	for _, p := range controlPlanePkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// ClockDiscipline flags direct wall-clock calls (time.Now, time.Sleep,
// time.Since, time.After, time.NewTicker, time.NewTimer, ...) in
// control-plane packages. Production code must take a clock.Clock;
// genuinely-wall-time sites (e.g. telemetry timestamps) carry a
// //ricsa:wallclock <reason> waiver. Test files are exempt only when they
// use the virtual clock helpers (import ricsa/internal/clock): a test that
// paces itself with raw sleeps is exactly the flaky sleep-polling PR 5
// de-flaked, so it is held to the same standard as production code.
var ClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc:  "control-plane packages must use the injected clock.Clock, never the time package's wall clock",
	Run:  runClockDiscipline,
}

func runClockDiscipline(p *Pass) {
	if !inControlPlane(p.Path) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) && importsPath(f, clockPkgPath) {
			// Virtual-clock test file: the remaining time.* mentions are
			// deliberate (bounded safety nets around a deterministic core).
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !bannedClockCalls[sel.Sel.Name] {
				return true
			}
			pkg := pkgNameOf(p.Info, sel.X)
			if pkg == nil || pkg.Path() != "time" {
				return true
			}
			p.Reportf("clockdiscipline", sel.Pos(),
				"time.%s in control-plane package %s: use the injected clock.Clock (//ricsa:wallclock <reason> if wall time is genuinely correct)",
				sel.Sel.Name, p.Path)
			return true
		})
	}
}

func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}
