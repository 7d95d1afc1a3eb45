// Package viz holds the geometry and image types shared by the
// visualization modules (isosurface extraction, ray casting, streamline
// generation, rendering): triangle meshes, RGBA framebuffers, and the view
// parameters a RICSA client manipulates (zoom factor and rotation angles,
// Section 5.1).
package viz

import (
	"bytes"
	"image"
	"math"
)

// Vec3 is a 3-component single-precision vector.
type Vec3 [3]float32

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns a scaled by s.
func (a Vec3) Scale(s float32) Vec3 { return Vec3{a[0] * s, a[1] * s, a[2] * s} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float32 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Cross returns the cross product a x b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// Norm returns the Euclidean length.
func (a Vec3) Norm() float32 {
	return float32(math.Sqrt(float64(a.Dot(a))))
}

// Normalize returns a unit-length copy (zero vectors are returned as-is).
func (a Vec3) Normalize() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Mesh is a triangle soup: every consecutive triple of Vertices is one
// triangle. The layout favors streaming between pipeline stages over
// indexed compactness.
type Mesh struct {
	Vertices []Vec3
}

// TriangleCount returns the number of triangles.
func (m *Mesh) TriangleCount() int { return len(m.Vertices) / 3 }

// Append concatenates other onto m.
func (m *Mesh) Append(other *Mesh) { m.Vertices = append(m.Vertices, other.Vertices...) }

// Bounds returns the axis-aligned bounding box of the mesh; ok is false for
// an empty mesh.
func (m *Mesh) Bounds() (lo, hi Vec3, ok bool) {
	if len(m.Vertices) == 0 {
		return lo, hi, false
	}
	lo, hi = m.Vertices[0], m.Vertices[0]
	for _, v := range m.Vertices {
		for k := 0; k < 3; k++ {
			if v[k] < lo[k] {
				lo[k] = v[k]
			}
			if v[k] > hi[k] {
				hi[k] = v[k]
			}
		}
	}
	return lo, hi, true
}

// Camera describes the interactive view parameters exposed by the RICSA web
// GUI: rotation angles (radians) driven by mouse drags and a zoom factor.
type Camera struct {
	Yaw   float64 // rotation about +y
	Pitch float64 // rotation about +x
	Zoom  float64 // 1 = fit object to viewport
}

// Rotate applies the camera rotation to v (world -> view).
func (c Camera) Rotate(v Vec3) Vec3 {
	cy, sy := math.Cos(c.Yaw), math.Sin(c.Yaw)
	cp, sp := math.Cos(c.Pitch), math.Sin(c.Pitch)
	x, y, z := float64(v[0]), float64(v[1]), float64(v[2])
	// Yaw about y.
	x, z = cy*x+sy*z, -sy*x+cy*z
	// Pitch about x.
	y, z = cp*y-sp*z, sp*y+cp*z
	return Vec3{float32(x), float32(y), float32(z)}
}

// ViewDir returns the world-space direction the camera looks along
// (the -z axis of view space mapped back to world space).
func (c Camera) ViewDir() Vec3 {
	// Inverse rotation applied to (0, 0, -1).
	cy, sy := math.Cos(c.Yaw), math.Sin(c.Yaw)
	cp, sp := math.Cos(c.Pitch), math.Sin(c.Pitch)
	// Inverse pitch then inverse yaw.
	x, y, z := 0.0, 0.0, -1.0
	y, z = cp*y+sp*z, -sp*y+cp*z
	x, z = cy*x-sy*z, sy*x+cy*z
	return Vec3{float32(x), float32(y), float32(z)}
}

// Image is an RGBA framebuffer.
type Image struct {
	W, H int
	Pix  []uint8 // 4 bytes per pixel, row-major
}

// NewImage allocates a black, opaque framebuffer.
func NewImage(w, h int) *Image {
	im := &Image{W: w, H: h, Pix: make([]uint8, 4*w*h)}
	for i := 3; i < len(im.Pix); i += 4 {
		im.Pix[i] = 0xff
	}
	return im
}

// Set writes pixel (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, r, g, b, a uint8) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := 4 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = r, g, b, a
}

// At reads pixel (x, y).
//
//ricsa:allow unreachable test support: pixel reads in render's TestRenderSphereCoversDisk/TestRenderDepthOrdering and raycast's TestRenderProducesCenterBrightness
func (im *Image) At(x, y int) (r, g, b, a uint8) {
	i := 4 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3]
}

// EncodePNG encodes the framebuffer into buf, wrapping Pix in an image.RGBA
// directly — no intermediate framebuffer copy — and drawing the encoder's
// internal buffers from a pool. Callers that publish the encoded bytes to
// other goroutines must copy them out of buf (the frame loop reuses buf
// every frame); PNG() is the convenience wrapper that does exactly that.
//
//ricsa:noalloc
func (im *Image) EncodePNG(buf *bytes.Buffer) error {
	rgba := image.RGBA{Pix: im.Pix, Stride: 4 * im.W, Rect: image.Rect(0, 0, im.W, im.H)}
	return pngEncoder.Encode(buf, &rgba)
}

// PNG encodes the framebuffer as a PNG file. The returned slice is a fresh
// copy safe to publish and retain; the encode buffer itself is pooled.
func (im *Image) PNG() ([]byte, error) {
	buf := pngBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := im.EncodePNG(buf); err != nil {
		pngBufPool.Put(buf)
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	pngBufPool.Put(buf)
	return out, nil
}

// NonBlackPixels counts pixels that differ from pure black, a cheap
// "did anything render" probe for tests. The scan walks four-byte pixel
// windows so the compiler hoists the bounds checks out of the loop.
func (im *Image) NonBlackPixels() int {
	n := 0
	for p := im.Pix; len(p) >= 4; p = p[4:] {
		if p[0]|p[1]|p[2] != 0 {
			n++
		}
	}
	return n
}

// Gray returns the mean luminance in [0,1], used by tests to check that
// parameter changes visibly alter subsequent frames.
//
//ricsa:allow unreachable test support: raycast's TestRenderViewIndependentForSphericalField and TestEarlyTerminationDarkensNothingOpaque
func (im *Image) Gray() float64 {
	var sum float64
	for p := im.Pix; len(p) >= 4; p = p[4:] {
		sum += 0.299*float64(p[0]) + 0.587*float64(p[1]) + 0.114*float64(p[2])
	}
	return sum / (255 * float64(im.W*im.H))
}
