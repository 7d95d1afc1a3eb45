package marchingcubes

import (
	"testing"

	"ricsa/internal/grid"
	"ricsa/internal/testutil"
	"ricsa/internal/viz"
)

// TestExtractIntoAllocationFlat asserts extraction into a reused mesh arena
// performs no steady-state allocation once the arena has grown.
func TestExtractIntoAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	f := sphereField(24)
	iso := float32(8)
	var m viz.Mesh
	ExtractInto(&m, f, iso) // grow the arena
	if m.TriangleCount() == 0 {
		t.Fatal("extraction produced no triangles")
	}
	allocs := testing.AllocsPerRun(10, func() {
		ExtractInto(&m, f, iso)
	})
	t.Logf("ExtractInto allocs/op: %.1f", allocs)
	if allocs > 0 {
		t.Fatalf("warm ExtractInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExtractIntoMatchesExtract checks arena reuse changes no geometry.
func TestExtractIntoMatchesExtract(t *testing.T) {
	f := sphereField(16)
	iso := float32(5.5)
	fresh := extract(f, iso)
	var m viz.Mesh
	ExtractInto(&m, f, iso)
	ExtractInto(&m, f, iso) // reuse pass
	if len(fresh.Vertices) != len(m.Vertices) {
		t.Fatalf("vertex counts differ: %d vs %d", len(fresh.Vertices), len(m.Vertices))
	}
	for i := range fresh.Vertices {
		if fresh.Vertices[i] != m.Vertices[i] {
			t.Fatalf("vertex %d differs: %v vs %v", i, fresh.Vertices[i], m.Vertices[i])
		}
	}
}

// TestExtractBlocksIntoMatches checks the pooled block path concatenates the
// same deterministic mesh as the allocating path.
func TestExtractBlocksIntoMatches(t *testing.T) {
	f := sphereField(20)
	iso := float32(7)
	blocks := grid.Decompose(f, 8)
	fresh := ExtractBlocks(f, blocks, iso, 2)
	var m viz.Mesh
	ExtractBlocksInto(&m, f, blocks, iso, 2)
	ExtractBlocksInto(&m, f, blocks, iso, 2)
	if len(fresh.Vertices) != len(m.Vertices) {
		t.Fatalf("vertex counts differ: %d vs %d", len(fresh.Vertices), len(m.Vertices))
	}
	for i := range fresh.Vertices {
		if fresh.Vertices[i] != m.Vertices[i] {
			t.Fatalf("vertex %d differs", i)
		}
	}
}
