package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file is the perf guard: -bench-diff compares a freshly generated
// bench artifact against the committed BENCH_pipeline.json baseline and
// flags any op whose ns/op or allocs/op regressed beyond a threshold. It is
// advisory by design — CI runners vary too much to hard-fail on timings — so
// the output is a markdown table for the job summary and the exit code stays
// zero for regressions (non-zero only for unreadable or malformed inputs).

// benchDiffThreshold is the relative regression that earns a warning: 20%.
const benchDiffThreshold = 0.20

func readBenchJSON(path string) (map[string]BenchRecord, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var records []BenchRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byOp := make(map[string]BenchRecord, len(records))
	order := make([]string, 0, len(records))
	for _, r := range records {
		byOp[r.Op] = r
		order = append(order, r.Op)
	}
	return byOp, order, nil
}

// pctChange returns the relative change new vs old, guarding zero baselines
// (a 0 -> n allocs change reports +inf-ish via the ok=false path and is
// flagged when n > 0).
func pctChange(old, new float64) (pct float64, ok bool) {
	if old == 0 {
		return 0, new == 0
	}
	return (new - old) / old, true
}

// diffBenchJSON prints a markdown comparison of newPath against basePath,
// flagging >threshold regressions in ns/op or allocs/op. Returns the number
// of flagged ops.
func diffBenchJSON(basePath, newPath string) (int, error) {
	base, order, err := readBenchJSON(basePath)
	if err != nil {
		return 0, err
	}
	fresh, freshOrder, err := readBenchJSON(newPath)
	if err != nil {
		return 0, err
	}

	fmt.Printf("### Bench diff: %s vs %s (flagging >%.0f%% regressions)\n\n",
		newPath, basePath, benchDiffThreshold*100)
	fmt.Println("| op | ns/op (base → new) | Δns | allocs/op (base → new) | flag |")
	fmt.Println("|---|---|---|---|---|")

	flagged := 0
	for _, op := range order {
		b := base[op]
		n, ok := fresh[op]
		if !ok {
			fmt.Printf("| %s | %.0f → (missing) | — | %d → (missing) | ⚠️ op removed |\n",
				op, b.NsPerOp, b.AllocsPerOp)
			flagged++
			continue
		}
		nsPct, _ := pctChange(b.NsPerOp, n.NsPerOp)
		allocPct, allocOK := pctChange(float64(b.AllocsPerOp), float64(n.AllocsPerOp))
		flag := ""
		if nsPct > benchDiffThreshold {
			flag = fmt.Sprintf("⚠️ ns/op +%.0f%%", nsPct*100)
		}
		if allocPct > benchDiffThreshold || !allocOK {
			if flag != "" {
				flag += ", "
			}
			flag += fmt.Sprintf("⚠️ allocs %d → %d", b.AllocsPerOp, n.AllocsPerOp)
		}
		if flag != "" {
			flagged++
		}
		fmt.Printf("| %s | %.0f → %.0f | %+.0f%% | %d → %d | %s |\n",
			op, b.NsPerOp, n.NsPerOp, nsPct*100, b.AllocsPerOp, n.AllocsPerOp, flag)
	}
	// Ops only present in the new artifact are fine (a PR adding coverage);
	// list them so the baseline gets regenerated alongside.
	for _, op := range freshOrder {
		if _, ok := base[op]; !ok {
			n := fresh[op]
			fmt.Printf("| %s | (new) → %.0f | — | (new) → %d | ℹ️ new op, commit baseline |\n",
				op, n.NsPerOp, n.AllocsPerOp)
		}
	}
	fmt.Println()
	if flagged > 0 {
		fmt.Printf("**%d op(s) regressed >%.0f%%** — informational; investigate before merging.\n",
			flagged, benchDiffThreshold*100)
	} else {
		fmt.Println("No regressions beyond threshold.")
	}
	return flagged, nil
}

// BenchBudget is one op's hard ceiling. Unlike the relative diff above,
// budget violations are a non-zero exit: the ceilings sit about 1.5x above
// the committed baseline's ns/op and at its allocs/op, so tripping one on
// the box the baseline was taken on is a regression, not noise. A zero
// MaxAllocsPerOp is a real ceiling — the zero-allocation stages pin exactly
// that.
type BenchBudget struct {
	Op             string  `json:"op"`
	MaxNsPerOp     float64 `json:"max_ns_per_op"`
	MaxAllocsPerOp int64   `json:"max_allocs_per_op"`
}

// checkBenchBudgets verifies the fresh artifact against the committed
// per-stage budgets, printing one line per budgeted op. Ops missing from the
// artifact count as violations (a renamed stage must update its budget).
func checkBenchBudgets(budgetPath, newPath string) (int, error) {
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		return 0, err
	}
	var budgets []BenchBudget
	if err := json.Unmarshal(data, &budgets); err != nil {
		return 0, fmt.Errorf("%s: %w", budgetPath, err)
	}
	fresh, _, err := readBenchJSON(newPath)
	if err != nil {
		return 0, err
	}

	fmt.Printf("### Bench budgets: %s vs ceilings in %s\n\n", newPath, budgetPath)
	fmt.Println("| op | ns/op (measured / ceiling) | allocs/op (measured / ceiling) | verdict |")
	fmt.Println("|---|---|---|---|")
	violations := 0
	for _, bud := range budgets {
		r, ok := fresh[bud.Op]
		if !ok {
			fmt.Printf("| %s | (missing) / %.0f | (missing) / %d | ❌ op absent from artifact |\n",
				bud.Op, bud.MaxNsPerOp, bud.MaxAllocsPerOp)
			violations++
			continue
		}
		verdict := "✅"
		if bud.MaxNsPerOp > 0 && r.NsPerOp > bud.MaxNsPerOp {
			verdict = "❌ over ns/op ceiling"
			violations++
		}
		if r.AllocsPerOp > bud.MaxAllocsPerOp {
			if verdict == "✅" {
				verdict = "❌"
				violations++
			}
			verdict += " over allocs/op ceiling"
		}
		fmt.Printf("| %s | %.0f / %.0f | %d / %d | %s |\n",
			bud.Op, r.NsPerOp, bud.MaxNsPerOp, r.AllocsPerOp, bud.MaxAllocsPerOp, verdict)
	}
	fmt.Println()
	if violations > 0 {
		fmt.Printf("**%d budget violation(s)** — hard failure.\n", violations)
	} else {
		fmt.Println("All stages inside their budgets.")
	}
	return violations, nil
}
