package steering

import (
	"testing"

	"ricsa/internal/testutil"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

// sodHorizonFrames is how many frames of the default session the horizon
// test steps. Sod's -x ghosts hold its left reservoir, so the tube is
// driven rather than drained: its density range settles near [0.41, 0.55]
// by frame ~500 and keeps crossing isovalue 0.5. Without the reservoir,
// mass drained through the transmissive boundaries and every frame from
// 152 on was black, so a benchmark that ran the default session longer
// timed empty frames.
const sodHorizonFrames = 1000

// TestDefaultSessionIsosurfaceHorizon steps the default request's solver
// frame by frame and checks every frame through sodHorizonFrames still
// crosses the isovalue, and that the last one extracts a non-empty
// surface.
func TestDefaultSessionIsosurfaceHorizon(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("4000 instrumented solver steps take minutes under -race")
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

// TestDefaultSessionZoomStatesSeparable holds the precondition of the
// benchmark's steer-loop classifier, which learns the lit-pixel counts of
// the default session at zoom 1 and zoom 0.25 from its first frames and
// then sorts every later frame by a threshold between them. Over the first
// 200 frames the two counts must stay at least 4× apart (the classifier's
// zoomSeparation), and each within 2× of its frame-1 value, or a frame
// lands in the band the classifier rejects as too close to call.
func TestDefaultSessionZoomStatesSeparable(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("800 instrumented solver steps and 400 frames take minutes under -race")
	}
	const frames, separation = 200, 4
	req := DefaultRequest()
	sim, err := newSimulator(req)
	if err != nil {
		t.Fatal(err)
	}
	near, far := req, req
	far.Camera.Zoom = 0.25
	var sc viz.FrameScratch
	field := sim.Density()
	lit := func(r Request) int {
		img, err := RenderDatasetInto(&sc, field, r, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		return img.NonBlackPixels()
	}
	var high1, low1 int
	for frame := 1; frame <= frames; frame++ {
		for i := 0; i < req.StepsPerFrame; i++ {
			sim.Step()
		}
		field = sim.DensityInto(field)
		high, low := lit(near), lit(far)
		if frame == 1 {
			high1, low1 = high, low
		}
		switch {
		case low*separation > high:
			t.Fatalf("frame %d: %d lit pixels at zoom 1 and %d at zoom 0.25 are less than %d× apart",
				frame, high, low, separation)
		case high*2 < high1 || high > 2*high1:
			t.Fatalf("frame %d: %d lit pixels at zoom 1, more than 2× from frame 1's %d", frame, high, high1)
		case low*2 < low1 || low > 2*low1:
			t.Fatalf("frame %d: %d lit pixels at zoom 0.25, more than 2× from frame 1's %d", frame, low, low1)
		}
	}
}
