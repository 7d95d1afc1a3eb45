// Package raycast implements direct volume rendering by orthographic ray
// casting with front-to-back alpha compositing, the second visualization
// technique modelled by the paper's cost analysis (Eq. 7):
//
//	t_raycasting = n_blocks x n_rays x n_samples x t_sample
//
// Rays are cast per pixel through the volume's bounding box; samples are
// trilinearly interpolated and mapped through a transfer function. Early ray
// termination is optional and off by default, matching the simplification
// the paper adopts so the model stays view-independent.
package raycast

import (
	"math"
	"sync"

	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/viz"
)

// TransferFunc maps a scalar sample to premultiplied-alpha-free RGBA in
// [0,1]. Alpha is per unit step (opacity density).
type TransferFunc func(v float64) (r, g, b, a float64)

// GrayRamp returns a transfer function that maps [lo, hi] to a gray ramp
// with the given maximum opacity.
func GrayRamp(lo, hi, maxAlpha float64) TransferFunc {
	return func(v float64) (float64, float64, float64, float64) {
		t := (v - lo) / (hi - lo)
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return t, t, t, maxAlpha * t
	}
}

// HotIron returns a black-red-yellow-white transfer function over [lo, hi],
// a classic palette for shock and combustion visualization.
func HotIron(lo, hi, maxAlpha float64) TransferFunc {
	return func(v float64) (float64, float64, float64, float64) {
		t := (v - lo) / (hi - lo)
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		r := math.Min(1, 3*t)
		g := math.Min(1, math.Max(0, 3*t-1))
		b := math.Min(1, math.Max(0, 3*t-2))
		return r, g, b, maxAlpha * t
	}
}

// Options configures a ray casting pass.
type Options struct {
	Camera viz.Camera
	Width  int
	Height int
	// Step is the sampling interval along each ray in voxel units.
	Step float64
	// Transfer maps samples to color and opacity.
	Transfer TransferFunc
	// EarlyTermination stops rays whose accumulated opacity exceeds 0.98.
	// The paper's cost model assumes it is disabled.
	EarlyTermination bool
	// Workers == 1 casts rows sequentially on the calling goroutine; any
	// other value runs the rows over the shared frame-compute pool (see
	// package fcp), whose width bounds the parallelism.
	Workers int
	// Queue is the caller's lane into the frame-compute pool — a session
	// passes its own so its rows compete fairly with other sessions'
	// batches. Nil uses a private queue on the process default pool.
	Queue *fcp.Queue
}

// DefaultOptions renders 512x512 with unit step and a gray ramp over [0,1].
func DefaultOptions() Options {
	return Options{
		Camera: viz.Camera{Zoom: 1},
		Width:  512, Height: 512,
		Step:     1.0,
		Transfer: GrayRamp(0, 1, 0.08),
	}
}

// SamplesPerRay returns the number of samples n_samples a ray takes through
// the field's bounding sphere at the configured step — the quantity Eq. 7
// multiplies by. It is view-independent under orthographic projection, as
// the paper notes.
func SamplesPerRay(f *grid.ScalarField, step float64) int {
	if step <= 0 {
		step = 1
	}
	diag := math.Sqrt(float64(f.NX*f.NX + f.NY*f.NY + f.NZ*f.NZ))
	return int(diag/step) + 1
}

// Render casts one ray per pixel through the volume.
func Render(f *grid.ScalarField, opt Options) *viz.Image {
	return RenderWith(nil, f, opt)
}

// RenderWith is Render reusing the scratch framebuffer (nil sc allocates a
// fresh one). The returned image is sc.Img — valid until the next render
// into the same scratch.
//
//ricsa:noalloc
func RenderWith(sc *viz.FrameScratch, f *grid.ScalarField, opt Options) *viz.Image {
	if sc == nil {
		sc = &viz.FrameScratch{}
	}
	if opt.Width <= 0 {
		opt.Width = 512
	}
	if opt.Height <= 0 {
		opt.Height = 512
	}
	if opt.Step <= 0 {
		opt.Step = 1
	}
	if opt.Transfer == nil {
		opt.Transfer = GrayRamp(0, 1, 0.08)
	}
	if opt.Camera.Zoom <= 0 {
		opt.Camera.Zoom = 1
	}
	img := sc.ReuseImage(opt.Width, opt.Height)

	// View basis: rays travel along dir; right/up span the image plane.
	// Rotate the canonical basis by the inverse camera rotation.
	dir := opt.Camera.ViewDir().Normalize()
	up := viz.Vec3{0, 1, 0}
	if math.Abs(float64(dir.Dot(up))) > 0.99 {
		up = viz.Vec3{1, 0, 0}
	}
	right := dir.Cross(up).Normalize()
	upv := right.Cross(dir).Normalize()

	cx, cy, cz := float64(f.NX-1)/2, float64(f.NY-1)/2, float64(f.NZ-1)/2
	center := viz.Vec3{float32(cx), float32(cy), float32(cz)}
	extent := math.Sqrt(cx*cx+cy*cy+cz*cz) * 2
	if extent == 0 {
		extent = 1
	}
	pixScale := extent / (opt.Camera.Zoom * float64(minInt(opt.Width, opt.Height)))
	nSamples := SamplesPerRay(f, opt.Step)
	halfSpan := float64(nSamples) * opt.Step / 2

	if opt.Workers == 1 {
		for y := 0; y < opt.Height; y++ {
			castRow(f, img, y, center, dir, right, upv, pixScale, halfSpan, nSamples, opt)
		}
		return img
	}
	// Rows write disjoint pixel spans, so any execution order produces the
	// same image; the pooled state and persistent queue keep the steady-state
	// frame loop free of per-call channel and goroutine allocations.
	st := rowsPool.Get().(*rowsState)
	q := opt.Queue
	if q == nil {
		if st.queue == nil {
			st.queue = fcp.Default().NewQueue()
		}
		q = st.queue
	}
	st.task = rowsTask{f: f, img: img, center: center, dir: dir, right: right, upv: upv,
		pixScale: pixScale, halfSpan: halfSpan, nSamples: nSamples, opt: opt}
	q.Run(opt.Height, &st.task)
	st.task = rowsTask{}
	rowsPool.Put(st)
	return img
}

// rowsState is the pooled per-call scratch of the parallel path: the task
// the pool runs and, for callers without a queue of their own, a persistent
// one on the default pool.
type rowsState struct {
	task  rowsTask
	queue *fcp.Queue
}

// rowsTask casts one image row per item.
type rowsTask struct {
	f                  *grid.ScalarField
	img                *viz.Image
	center, dir        viz.Vec3
	right, upv         viz.Vec3
	pixScale, halfSpan float64
	nSamples           int
	opt                Options
}

func (t *rowsTask) Run(_, y int) {
	castRow(t.f, t.img, y, t.center, t.dir, t.right, t.upv, t.pixScale, t.halfSpan, t.nSamples, t.opt)
}

var rowsPool = sync.Pool{New: func() any { return new(rowsState) }}

func castRow(f *grid.ScalarField, img *viz.Image, y int, center, dir, right, upv viz.Vec3,
	pixScale, halfSpan float64, nSamples int, opt Options) {
	halfW, halfH := float64(opt.Width)/2, float64(opt.Height)/2
	d := [3]float64{float64(dir[0]), float64(dir[1]), float64(dir[2])}
	hi := [3]float64{float64(f.NX - 1), float64(f.NY - 1), float64(f.NZ - 1)}
	for x := 0; x < opt.Width; x++ {
		u := (float64(x) + 0.5 - halfW) * pixScale
		v := (halfH - float64(y) - 0.5) * pixScale
		origin := center.
			Add(right.Scale(float32(u))).
			Add(upv.Scale(float32(v))).
			Sub(dir.Scale(float32(halfSpan)))
		o := [3]float64{float64(origin[0]), float64(origin[1]), float64(origin[2])}

		var cr, cg, cb, ca float64
		s0, s1 := clipRay(o, d, hi, opt.Step, nSamples)
		for s := s0; s < s1; s++ {
			t := float64(s) * opt.Step
			px := o[0] + d[0]*t
			py := o[1] + d[1]*t
			pz := o[2] + d[2]*t
			if px < 0 || py < 0 || pz < 0 || px > hi[0] || py > hi[1] || pz > hi[2] {
				continue
			}
			val := f.Sample(px, py, pz)
			r, g, b, a := opt.Transfer(val)
			a = math.Min(1, a*opt.Step)
			w := (1 - ca) * a
			cr += w * r
			cg += w * g
			cb += w * b
			ca += w
			if opt.EarlyTermination && ca > 0.98 {
				break
			}
		}
		img.Set(x, y, clamp8(cr), clamp8(cg), clamp8(cb), 0xff)
	}
}

// clipRay intersects the ray o + d*t with the box [0, hi] slab by slab and
// returns a sample range [s0, s1) holding every sample index s whose point
// o + d*(s*step) can pass the marching loop's box test. The range is a
// superset — the slabs are widened by clipSlack against the rounding of the
// sample position, the range is padded by a sample on each side against the
// rounding of the intersection — so the loop keeps its per-sample test and
// the image does not depend on the clip. An axis the ray runs parallel to
// (d == 0) constrains nothing, or rules the whole ray out when the origin
// lies outside that slab. Comparisons are written so a NaN narrows nothing.
func clipRay(o, d, hi [3]float64, step float64, nSamples int) (s0, s1 int) {
	tIn, tOut := 0.0, float64(nSamples-1)*step
	for a := 0; a < 3; a++ {
		if d[a] == 0 {
			if o[a] < 0 || o[a] > hi[a] {
				return 0, 0
			}
			continue
		}
		t0, t1 := (-clipSlack-o[a])/d[a], (hi[a]+clipSlack-o[a])/d[a]
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tIn {
			tIn = t0
		}
		if t1 < tOut {
			tOut = t1
		}
	}
	first, last := tIn/step-1, tOut/step+1
	if first < 0 {
		first = 0
	}
	if last > float64(nSamples-1) {
		last = float64(nSamples - 1)
	}
	if first > last {
		return 0, 0
	}
	return int(first), int(last) + 1
}

// clipSlack widens the box clipRay intersects, in voxels. The marching loop
// tests the rounded sum o + d*t, so a sample it accepts can lie outside the
// exact box by that rounding: about 1e-12 at the largest grid the service
// admits, and enough to hold a ray on a face it is leaving when a direction
// component is the 6e-17 an axis-aligned camera's cos(pi/2) yields. 1e-6 is
// far above that and admits no extra sample at any practical step.
const clipSlack = 1e-6

func clamp8(v float64) uint8 {
	v *= 255
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
