package analysis

// Golden tests in the style of x/tools' analysistest: each corpus under
// testdata/ is one package type-checked under a chosen import path (so
// path-scoped rules can be pointed at control-plane and data-plane paths
// alike), and every expected finding is a trailing comment on its line:
//
//	time.Sleep(d) // want "time\\.Sleep in control-plane"
//
// The quoted text is a regexp matched against "rule: message". Lines that
// produce a finding with no matching want — or a want with no finding —
// fail the test, so the corpus pins both positives and true negatives.
// Waiver-hygiene findings land on the directive's own line; since a line
// comment would be swallowed into the directive text, those wants ride a
// block comment placed before it:
//
//	/* want "waiver directive requires a justification" */ //ricsa:allow clockdiscipline
import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	wantRe  = regexp.MustCompile(`want\s+((?:"[^"]*"\s*)+)`)
	quoteRe = regexp.MustCompile(`"([^"]*)"`)
)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// runGolden type-checks testdata/<dir> as one unit under pkgPath, runs the
// analyzers (Collect across the unit first, then Run), and diffs the
// findings against the corpus's want comments.
func runGolden(t *testing.T, dir, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	wants := map[string]map[int][]*expectation{} // file -> line -> wants
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(abs, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse corpus %s: %v", full, err)
		}
		files = append(files, f)
		byLine := map[int][]*expectation{}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", full, i+1, q[1], err)
				}
				byLine[i+1] = append(byLine[i+1], &expectation{re: re})
			}
		}
		wants[full] = byLine
	}

	imp := importer.ForCompiler(fset, "source", nil)
	u := typecheck(fset, imp, abs, pkgPath, pkgPath, files)
	for _, err := range u.TypeErrs {
		t.Errorf("corpus must type-check cleanly: %v", err)
	}

	facts := NewFacts()
	silent := func(Finding) {}
	for _, a := range analyzers {
		if a.Collect != nil {
			a.Collect(NewPassSplit(u, facts, silent, silent))
		}
	}
	var findings []Finding
	add := func(f Finding) { findings = append(findings, f) }
	for i, a := range analyzers {
		waiverReport := silent
		if i == 0 {
			waiverReport = add // hygiene findings surface once, like the driver
		}
		a.Run(NewPassSplit(u, facts, add, waiverReport))
	}
	SortFindings(findings)

	for _, f := range findings {
		text := f.Rule + ": " + f.Message
		matched := false
		for _, e := range wants[f.File][f.Line] {
			if !e.matched && e.re.MatchString(text) {
				e.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, byLine := range wants {
		for line, exps := range byLine {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: no finding matched want %q", file, line, e.re)
				}
			}
		}
	}
}

func TestClockDisciplineGolden(t *testing.T) {
	runGolden(t, "clockdiscipline", "ricsa/internal/cm", ClockDiscipline)
}

// TestClockDisciplineIgnoresDataPlane: the same banned calls in a package
// outside the control-plane set produce no findings.
func TestClockDisciplineIgnoresDataPlane(t *testing.T) {
	runGolden(t, "dataplane", "ricsa/internal/viz/demo", ClockDiscipline)
}

func TestHotPathAllocGolden(t *testing.T) {
	runGolden(t, "hotpathalloc", "ricsa/internal/hotdemo", HotPathAlloc)
}

func TestAtomicDisciplineGolden(t *testing.T) {
	runGolden(t, "atomicdiscipline", "ricsa/internal/atomicdemo", AtomicDiscipline)
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", "ricsa/internal/scenario/golden", Determinism)
}

func TestUnreachableGolden(t *testing.T) {
	runGolden(t, "unreachable", "ricsa/internal/unreachdemo", Unreachable)
}

// TestUnreachableRootsOnRepo pins the analyzer's roots against the module
// itself: benchmark/ is loaded, and the declarations only its workloads
// call are live with it and dead without it.
func TestUnreachableRootsOnRepo(t *testing.T) {
	units, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	solve := func(skip string) *reachGraph {
		facts := NewFacts()
		for _, u := range units {
			if u.Path != skip {
				Unreachable.Collect(NewPass(u, facts, func(Finding) {}))
			}
		}
		facts.Reach.solve()
		return facts.Reach
	}
	loaded := false
	for _, u := range units {
		if u.Path == "ricsa/benchmark" {
			loaded = true
			for _, err := range u.TypeErrs {
				t.Errorf("ricsa/benchmark: %v", err)
			}
		}
	}
	if !loaded {
		t.Fatal("ricsa/benchmark was not loaded")
	}
	with, without := solve(""), solve("ricsa/benchmark")
	for _, key := range []string{
		"ricsa/internal/viz.ParseDeltaFrame",
		"ricsa/internal/viz.DeltaDecoder",
		"ricsa/internal/steering.ManagedSession.Renders",
		"ricsa/internal/steering.ManagedSession.AttachViewer",
		"ricsa/internal/netsim.Link.SetDelay",
	} {
		if !with.live[key] {
			t.Errorf("%s is flagged although benchmark/ calls it", key)
		}
		if without.live[key] {
			t.Errorf("%s is live without benchmark/; the pin no longer proves benchmark/ is a root", key)
		}
	}
}

// TestFindingJSON pins the machine-readable shape ricsa-lint -json emits.
func TestFindingJSON(t *testing.T) {
	b, err := json.Marshal(Finding{File: "x.go", Line: 3, Col: 7, Rule: "determinism", Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"x.go","line":3,"col":7,"rule":"determinism","message":"m"}`
	if string(b) != want {
		t.Fatalf("Finding JSON = %s, want %s", b, want)
	}
}
