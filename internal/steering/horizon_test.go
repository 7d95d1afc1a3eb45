package steering

import (
	"testing"

	"ricsa/internal/testutil"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

// sodHorizonFrames is how many frames the default session's isosurface is
// known to last. At isovalue 0.5 the Sod tube loses it for good at frame
// 152 (t ≈ 1.90): mass drains through the transmissive boundaries until no
// cell is denser than 0.5 (max density 0.5004 at frame 151, 0.4997 at 152),
// and every later frame is black. A benchmark or claim that runs the
// default session longer than this measures empty frames.
const sodHorizonFrames = 140

// TestDefaultSessionIsosurfaceHorizon steps the default request's solver
// frame by frame and checks every frame through sodHorizonFrames still
// crosses the isovalue, and that the last one extracts a non-empty
// surface.
func TestDefaultSessionIsosurfaceHorizon(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("560 instrumented solver steps take minutes under -race")
	}
	req := DefaultRequest()
	sim, err := newSimulator(req)
	if err != nil {
		t.Fatal(err)
	}
	field := sim.Density()
	for frame := 1; frame <= sodHorizonFrames; frame++ {
		for i := 0; i < req.StepsPerFrame; i++ {
			sim.Step()
		}
		field = sim.DensityInto(field)
		if lo, hi := field.MinMax(); !(lo < req.Isovalue && req.Isovalue < hi) {
			t.Fatalf("frame %d (t=%.3f): density range [%.4f, %.4f] does not cross isovalue %.2f",
				frame, sim.Time(), lo, hi, req.Isovalue)
		}
	}
	var mesh viz.Mesh
	marchingcubes.ExtractInto(&mesh, field, req.Isovalue)
	if len(mesh.Vertices) == 0 {
		t.Fatalf("frame %d extracts an empty isosurface", sodHorizonFrames)
	}
}
