package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BenchmarkRows runs the artifact's rows under `go test -bench`, so
// `go test -run NONE -bench 'Rows/png_encode' ./cmd/ricsa-bench` measures
// exactly what -bench-json records for png_encode.
func BenchmarkRows(b *testing.B) {
	for _, r := range benchRows() {
		b.Run(r.op, func(b *testing.B) {
			b.ReportAllocs()
			r.fn(b)
		})
	}
}

// TestBenchRowsMatchArtifacts pins the row table against the committed
// artifacts: a renamed or dropped row fails here, not as "op removed" in
// the bench job.
func TestBenchRowsMatchArtifacts(t *testing.T) {
	var ops []string
	seen := map[string]bool{}
	for _, r := range benchRows() {
		if seen[r.op] {
			t.Errorf("duplicate row %q", r.op)
		}
		seen[r.op] = true
		ops = append(ops, r.op)
	}

	_, committed, err := readBenchJSON("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ops, committed) {
		t.Errorf("benchRows() = %v\nBENCH_pipeline.json = %v", ops, committed)
	}

	data, err := os.ReadFile("../../BENCH_budgets.json")
	if err != nil {
		t.Fatal(err)
	}
	var budgets []BenchBudget
	if err := json.Unmarshal(data, &budgets); err != nil {
		t.Fatal(err)
	}
	for _, bud := range budgets {
		if !seen[bud.Op] {
			t.Errorf("BENCH_budgets.json budgets %q, which no row measures", bud.Op)
		}
	}
}
