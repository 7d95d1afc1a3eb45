package steering

import (
	"fmt"

	"ricsa/internal/dataset"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
	"ricsa/internal/viz/raycast"
	"ricsa/internal/viz/render"
	"ricsa/internal/viz/streamline"
)

// RenderDataset produces the actual image for a dataset under a request's
// visualization method and view parameters — the concrete work the
// pipeline's Extract/Render modules perform. A non-negative Octant
// restricts processing to one octree subset of the dataset.
func RenderDataset(f *grid.ScalarField, req Request, width, height int) (*viz.Image, error) {
	return RenderDatasetInto(nil, f, req, width, height)
}

// RenderDatasetROI is the dirty-block incremental variant of
// RenderDatasetInto for the isosurface method: the cache carries the
// previous frame's per-block meshes and stamps, so only blocks whose
// content moved (or that cross the isovalue) re-extract, over q when
// non-nil. The assembled mesh is byte-identical to a from-scratch block
// extraction of the same snapshot, so the rendered image is too. Methods
// other than isosurface (and a nil cache) fall through to the full path.
// Either way q is also the lane the raster bands and ray-cast rows run on,
// so all of a session's pooled frame work queues fairly behind one queue.
func RenderDatasetROI(sc *viz.FrameScratch, cache *viz.BlockMeshCache, q *fcp.Queue, f *grid.ScalarField, req Request, width, height int) (*viz.Image, error) {
	return renderDatasetInto(sc, cache, q, f, req, width, height)
}

// RenderDatasetInto is RenderDataset with caller-owned scratch: the mesh
// arena, framebuffer, z-buffer, and projection buffers live in sc and are
// reused across calls, so a steady-state frame loop renders without
// per-frame allocation. The returned image is backed by sc — consume it
// (encode or copy) before the next call with the same scratch. A nil sc
// allocates fresh buffers, matching RenderDataset.
func RenderDatasetInto(sc *viz.FrameScratch, f *grid.ScalarField, req Request, width, height int) (*viz.Image, error) {
	return renderDatasetInto(sc, nil, nil, f, req, width, height)
}

// renderDatasetInto is RenderDatasetInto with the pooled stages (raster
// bands, ray-cast rows, dirty-block extraction) submitted through q; a nil
// q leaves them on the process default pool. A non-nil cache makes the
// isosurface extraction incremental (see RenderDatasetROI).
func renderDatasetInto(sc *viz.FrameScratch, cache *viz.BlockMeshCache, q *fcp.Queue, f *grid.ScalarField, req Request, width, height int) (*viz.Image, error) {
	if sc == nil {
		sc = &viz.FrameScratch{}
	}
	if req.Octant >= 0 && req.Octant < 8 {
		oct := grid.Octants(f)[req.Octant]
		if oct.Cells() == 0 {
			return nil, fmt.Errorf("steering: octant %d is empty for %dx%dx%d",
				req.Octant, f.NX, f.NY, f.NZ)
		}
		f = grid.SubField(f, oct)
	}
	// Frame the dataset domain, not the surface, so monitored motion stays
	// visible frame to frame. The box lives in the scratch so the option
	// pointer doesn't force a per-frame allocation.
	sc.Bounds = [2]viz.Vec3{
		{0, 0, 0},
		{float32(f.NX - 1), float32(f.NY - 1), float32(f.NZ - 1)},
	}
	switch req.Method {
	case "isosurface", "":
		if cache != nil {
			marchingcubes.ExtractROIInto(&sc.Mesh, cache, f, req.BlockEdge, req.Isovalue, q)
		} else {
			marchingcubes.ExtractInto(&sc.Mesh, f, req.Isovalue)
		}
		opt := render.DefaultOptions()
		opt.Width, opt.Height = width, height
		opt.Camera = req.Camera
		opt.FixedBounds = &sc.Bounds
		opt.Queue = q
		return render.RenderWith(sc, &sc.Mesh, opt), nil
	case "raycast":
		opt := raycast.DefaultOptions()
		opt.Width, opt.Height = width, height
		opt.Camera = req.Camera
		opt.Queue = q
		mn, mx := f.MinMax()
		opt.Transfer = raycast.HotIron(float64(mn), float64(mx), 0.15)
		return raycast.RenderWith(sc, f, opt), nil
	case "streamline":
		vf := dataset.VelocityFromScalar(f)
		seeds := streamline.SeedGrid(vf, 6, 6, 6)
		sopt := streamline.DefaultOptions()
		sopt.Steps = 200
		lines := streamline.Trace(vf, seeds, sopt)
		pts := make([][]viz.Vec3, len(lines))
		for i, l := range lines {
			pts[i] = l.Points
		}
		ropt := render.DefaultOptions()
		ropt.Width, ropt.Height = width, height
		ropt.Camera = req.Camera
		ropt.FixedBounds = &sc.Bounds
		return render.RenderLinesWith(sc, pts, ropt), nil
	default:
		return nil, fmt.Errorf("steering: unknown method %q", req.Method)
	}
}
