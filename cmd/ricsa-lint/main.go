// Command ricsa-lint runs ricsa's project-specific static analyzers — the
// machine-checked invariants of DESIGN §12: clockdiscipline, hotpathalloc,
// atomicdiscipline, determinism, unreachable — over the module and exits
// non-zero if any finding survives the in-source waivers.
//
// Usage:
//
//	go run ./cmd/ricsa-lint [-json] [-list] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/...",
// "./internal/steering"); the default is the whole module. Patterns only
// narrow what is reported: the whole module is always loaded, so
// reachability is computed from every main and init. -json emits
// machine-readable findings (file, line, col, rule, message) for CI
// annotation tooling; -list prints the analyzer suite and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ricsa/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	// Facts are collected over the whole module; only the units matching
	// the patterns are reported on.
	all, err := analysis.Load(root)
	if err != nil {
		fatal(err)
	}
	units := analysis.Select(all, patterns)
	for _, u := range units {
		for _, terr := range u.TypeErrs {
			// A unit that fails to type-check still gets its syntactic
			// checks, but the linter must not pretend it saw everything.
			fmt.Fprintf(os.Stderr, "ricsa-lint: warning: %s: type error: %v\n", u.Path, terr)
		}
	}

	var findings []analysis.Finding
	report := func(f analysis.Finding) { findings = append(findings, f) }
	facts := analysis.NewFacts()

	// Phase 1: gather cross-package facts (the atomic access set, the
	// reachability graph) over every unit of the module before any rule
	// fires.
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, u := range all {
			a.Collect(analysis.NewPass(u, facts, func(analysis.Finding) {}))
		}
	}
	// Phase 2: run the rules. Waiver-hygiene findings (rule "waiver") are
	// reported while building each unit's first pass.
	for _, u := range units {
		first := true
		for _, a := range analyzers {
			waiverReport := func(analysis.Finding) {}
			if first {
				waiverReport = report
				first = false
			}
			pass := analysis.NewPassSplit(u, facts, report, waiverReport)
			a.Run(pass)
		}
	}

	analysis.SortFindings(findings)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) == 0 {
			fmt.Fprintf(os.Stderr, "ricsa-lint: %d units, %d analyzers, 0 findings\n", len(units), len(analyzers))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ricsa-lint:", err)
	os.Exit(1)
}
