// Package render is a software rasterizer: it projects triangle meshes
// orthographically under the interactive camera (rotation + zoom) and
// shades them with a Lambert term into an RGBA framebuffer. It is the
// pipeline's final "rendering" module for geometry produced by isosurface
// extraction (the paper's clients either render locally on a GPU host or
// receive framebuffers rendered upstream — this module serves both roles).
package render

import (
	"math"
	"sync"

	"ricsa/internal/fcp"
	"ricsa/internal/viz"
)

// Options configures a render pass.
type Options struct {
	Camera viz.Camera
	Width  int
	Height int
	Light  viz.Vec3 // view-space light direction
	BaseR  uint8    // surface tint
	BaseG  uint8
	BaseB  uint8
	// Workers == 1 rasterizes on the calling goroutine; any other value runs
	// horizontal bands of the framebuffer over the shared frame-compute pool
	// (see package fcp), whose width bounds the parallelism.
	Workers int
	// Queue is the caller's lane into the frame-compute pool — a session
	// passes its own so its bands compete fairly with other sessions'
	// batches. Nil uses a private queue on the process default pool.
	Queue *fcp.Queue
	// FixedBounds, when non-nil, fits the view to this world-space box
	// instead of the mesh's own bounding box. Monitoring applications set
	// it to the dataset domain so surface motion stays visible across
	// frames instead of being normalized away by auto-fitting.
	FixedBounds *[2]viz.Vec3
}

// DefaultOptions renders 512x512 with a headlight and a bone-like tint.
func DefaultOptions() Options {
	return Options{
		Camera: viz.Camera{Zoom: 1},
		Width:  512, Height: 512,
		Light: viz.Vec3{0.3, 0.4, 1},
		BaseR: 224, BaseG: 202, BaseB: 168,
	}
}

// RenderWith rasterizes the mesh with a z-buffer into caller-owned scratch:
// the framebuffer, z-buffer, and projection buffer are reused from sc (grown
// on first use), so a frame loop rendering through the same scratch every
// frame performs no steady-state allocation. The returned image is sc.Img —
// valid until the next render into the same scratch. A nil sc renders into
// fresh buffers.
//
//ricsa:noalloc
func RenderWith(sc *viz.FrameScratch, m *viz.Mesh, opt Options) *viz.Image {
	if sc == nil {
		sc = &viz.FrameScratch{}
	}
	if opt.Width <= 0 {
		opt.Width = 512
	}
	if opt.Height <= 0 {
		opt.Height = 512
	}
	if opt.Camera.Zoom <= 0 {
		opt.Camera.Zoom = 1
	}
	img := sc.ReuseImage(opt.Width, opt.Height)
	lo, hi, ok := m.Bounds()
	if !ok {
		return img
	}
	if opt.FixedBounds != nil {
		lo, hi = opt.FixedBounds[0], opt.FixedBounds[1]
	}

	// Fit the model: center on the bounding box, scale so the largest
	// dimension fills the viewport at zoom 1.
	center := lo.Add(hi).Scale(0.5)
	ext := hi.Sub(lo)
	extent := max3(ext[0], ext[1], ext[2])
	if extent == 0 {
		extent = 1
	}
	scale := float32(opt.Camera.Zoom) * float32(minInt(opt.Width, opt.Height)) / extent

	light := opt.Light.Normalize()
	zbuf := sc.ReuseZBuf(opt.Width * opt.Height)
	for i := range zbuf {
		zbuf[i] = float32(math.Inf(-1))
	}

	// Project all vertices once.
	proj := sc.ReuseProj(len(m.Vertices))
	halfW, halfH := float32(opt.Width)/2, float32(opt.Height)/2
	for i, v := range m.Vertices {
		p := opt.Camera.Rotate(v.Sub(center)).Scale(scale)
		proj[i] = viz.Vec3{p[0] + halfW, halfH - p[1], p[2]}
	}

	if opt.Workers == 1 || m.TriangleCount() < 1024 {
		rasterBand(img, zbuf, proj, light, opt, 0, opt.Height)
		return img
	}
	// Bands write disjoint rows and each walks the triangles in mesh order,
	// so every pixel sees the same sequence of depth tests as the serial
	// raster: the image is byte-identical at any pool width. The pooled state
	// keeps the steady-state frame loop free of per-call goroutines.
	st := bandsPool.Get().(*bandsState)
	q := opt.Queue
	if q == nil {
		if st.queue == nil {
			st.queue = fcp.Default().NewQueue()
		}
		q = st.queue
	}
	bands := minInt(bandsPerSlot*q.Slots(), opt.Height)
	st.task = bandsTask{img: img, zbuf: zbuf, proj: proj, light: light, opt: opt,
		rows: (opt.Height + bands - 1) / bands}
	q.Run(bands, &st.task)
	st.task = bandsTask{}
	bandsPool.Put(st)
	return img
}

// bandsPerSlot is how many bands each pool slot gets: enough that a slot
// finishing a sparse band early picks up another, few enough that walking
// the whole triangle list once per band stays a small share of the raster.
const bandsPerSlot = 2

// bandsState is the pooled per-call scratch of the parallel path: the task
// the pool runs and, for callers without a queue of their own, a persistent
// one on the default pool.
type bandsState struct {
	task  bandsTask
	queue *fcp.Queue
}

// bandsTask rasterizes one horizontal band of rows per item.
type bandsTask struct {
	img   *viz.Image
	zbuf  []float32
	proj  []viz.Vec3
	light viz.Vec3
	opt   Options
	rows  int // band height
}

// Run rasterizes the band'th band.
//
//ricsa:noalloc
func (t *bandsTask) Run(_, band int) {
	y0 := band * t.rows
	rasterBand(t.img, t.zbuf, t.proj, t.light, t.opt, y0, minInt(y0+t.rows, t.opt.Height))
}

var bandsPool = sync.Pool{New: func() any { return new(bandsState) }}

// rasterBand rasterizes every projected triangle into rows [y0, y1).
func rasterBand(img *viz.Image, zbuf []float32, proj []viz.Vec3, light viz.Vec3, opt Options, y0, y1 int) {
	for t := 0; t+2 < len(proj); t += 3 {
		rasterTriangle(img, zbuf, proj[t], proj[t+1], proj[t+2], light, opt, y0, y1)
	}
}

// rasterTriangle fills one screen-space triangle into rows [y0, y1) with
// z-buffering and flat Lambert shading.
func rasterTriangle(img *viz.Image, zbuf []float32, a, b, c viz.Vec3, light viz.Vec3, opt Options, y0, y1 int) {
	// Clip to the band first: a band walks every triangle of the mesh, and
	// most of them miss it.
	minY := int(math.Floor(float64(min3(a[1], b[1], c[1]))))
	maxY := int(math.Ceil(float64(max3(a[1], b[1], c[1]))))
	if minY < y0 {
		minY = y0
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	if minY > maxY {
		return
	}
	minX := int(math.Floor(float64(min3(a[0], b[0], c[0]))))
	maxX := int(math.Ceil(float64(max3(a[0], b[0], c[0]))))
	if minX < 0 {
		minX = 0
	}
	if maxX >= img.W {
		maxX = img.W - 1
	}
	if minX > maxX {
		return
	}

	// Face normal in view space for shading (screen x/y plus depth z).
	n := b.Sub(a).Cross(c.Sub(a))
	// Screen y is flipped; flip the normal's y back for lighting.
	n[1] = -n[1]
	nn := n.Normalize()
	lambert := nn.Dot(light)
	if lambert < 0 {
		lambert = -lambert // double-sided shading
	}
	shade := 0.2 + 0.8*float64(lambert)

	d00 := float64(b[0]-a[0])*float64(c[1]-a[1]) - float64(c[0]-a[0])*float64(b[1]-a[1])
	if d00 == 0 {
		return // degenerate in screen space
	}
	r := uint8(float64(opt.BaseR) * shade)
	g := uint8(float64(opt.BaseG) * shade)
	bl := uint8(float64(opt.BaseB) * shade)

	pix := img.Pix
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := ((float64(b[0])-px)*(float64(c[1])-py) - (float64(c[0])-px)*(float64(b[1])-py)) / d00
			w1 := ((float64(c[0])-px)*(float64(a[1])-py) - (float64(a[0])-px)*(float64(c[1])-py)) / d00
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := float32(w0)*a[2] + float32(w1)*b[2] + float32(w2)*c[2]
			i := y*img.W + x
			if z <= zbuf[i] {
				continue
			}
			zbuf[i] = z
			// The bounding box is clamped to the image, so write the pixel
			// directly instead of re-bounds-checking through Set.
			o := 4 * i
			pix[o], pix[o+1], pix[o+2], pix[o+3] = r, g, bl, 0xff
		}
	}
}

func min3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
