package render

import (
	"math"

	"ricsa/internal/viz"
)

// RenderLinesWith rasterizes 3-D polylines (streamlines) into an RGBA
// framebuffer under the same orthographic camera model as triangle
// rendering, with z-buffered depth and a simple depth-cue shade (nearer
// segments brighter). Lines are passed as point sequences. It reuses the
// scratch framebuffer and z-buffer (nil sc allocates fresh buffers); the
// returned image is sc.Img — valid until the next render into the same
// scratch.
func RenderLinesWith(sc *viz.FrameScratch, lines [][]viz.Vec3, opt Options) *viz.Image {
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

	// Bounds over all points (or the fixed framing box).
	var lo, hi viz.Vec3
	found := false
	for _, ln := range lines {
		for _, p := range ln {
			if !found {
				lo, hi = p, p
				found = true
				continue
			}
			for k := 0; k < 3; k++ {
				if p[k] < lo[k] {
					lo[k] = p[k]
				}
				if p[k] > hi[k] {
					hi[k] = p[k]
				}
			}
		}
	}
	if !found {
		return img
	}
	if opt.FixedBounds != nil {
		lo, hi = opt.FixedBounds[0], opt.FixedBounds[1]
	}
	center := lo.Add(hi).Scale(0.5)
	ext := hi.Sub(lo)
	extent := max3(ext[0], ext[1], ext[2])
	if extent == 0 {
		extent = 1
	}
	scale := float32(opt.Camera.Zoom) * float32(minInt(opt.Width, opt.Height)) / extent

	zbuf := sc.ReuseZBuf(opt.Width * opt.Height)
	for i := range zbuf {
		zbuf[i] = float32(math.Inf(-1))
	}
	halfW, halfH := float32(opt.Width)/2, float32(opt.Height)/2

	// Depth range for the depth cue.
	var zMin, zMax float32 = math.MaxFloat32, -math.MaxFloat32
	proj := make([][]viz.Vec3, len(lines))
	for i, ln := range lines {
		pl := make([]viz.Vec3, len(ln))
		for j, p := range ln {
			v := opt.Camera.Rotate(p.Sub(center)).Scale(scale)
			pl[j] = viz.Vec3{v[0] + halfW, halfH - v[1], v[2]}
			if v[2] < zMin {
				zMin = v[2]
			}
			if v[2] > zMax {
				zMax = v[2]
			}
		}
		proj[i] = pl
	}
	zSpan := zMax - zMin
	if zSpan <= 0 {
		zSpan = 1
	}

	for _, pl := range proj {
		for j := 0; j+1 < len(pl); j++ {
			drawSegment(img, zbuf, pl[j], pl[j+1], zMin, zSpan, opt)
		}
	}
	return img
}

// drawSegment draws one z-buffered line segment with depth-cued color.
func drawSegment(img *viz.Image, zbuf []float32, a, b viz.Vec3, zMin, zSpan float32, opt Options) {
	dx := float64(b[0] - a[0])
	dy := float64(b[1] - a[1])
	steps := int(math.Max(math.Abs(dx), math.Abs(dy))) + 1
	baseR, baseG, baseB := opt.BaseR, opt.BaseG, opt.BaseB
	if baseR == 0 && baseG == 0 && baseB == 0 {
		baseR, baseG, baseB = 120, 200, 255
	}
	for s := 0; s <= steps; s++ {
		t := float32(s) / float32(steps)
		x := int(a[0] + (b[0]-a[0])*t)
		y := int(a[1] + (b[1]-a[1])*t)
		if x < 0 || y < 0 || x >= img.W || y >= img.H {
			continue
		}
		z := a[2] + (b[2]-a[2])*t
		i := y*img.W + x
		if z <= zbuf[i] {
			continue
		}
		zbuf[i] = z
		cue := 0.35 + 0.65*float64((z-zMin)/zSpan)
		img.Set(x, y, uint8(float64(baseR)*cue), uint8(float64(baseG)*cue), uint8(float64(baseB)*cue), 0xff)
	}
}
