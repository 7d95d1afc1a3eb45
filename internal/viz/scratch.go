package viz

import (
	"bytes"
	"image/png"
	"sync"
)

// This file is the data plane's memory layer. The steady-state frame loop —
// sim step, isosurface extraction, rasterization, PNG encoding — runs every
// FramePeriod for every live session, so per-frame `make`s of framebuffers,
// z-buffers, and triangle meshes dominate GC pressure long before the
// control plane does. FrameScratch gathers the reusable buffers one producer
// goroutine needs; the PNG pools recycle the encoder state shared by all of
// them.
//
// Ownership rule: a FrameScratch belongs to exactly one producer at a time.
// Everything rendered into it is overwritten by the next frame, so anything
// published to other goroutines (PNG bytes handed to viewers) must be copied
// out first — PNG() and the Enc-buffer idiom below both do.

// FrameScratch is the reusable per-producer memory of one frame pipeline:
// a triangle arena, a framebuffer, a z-buffer, a projected-vertex buffer,
// fixed-bounds storage, and a PNG encode buffer. The zero value is ready to
// use; buffers grow on first use and are reused afterwards.
type FrameScratch struct {
	// Mesh is the triangle arena extraction fills and rendering consumes.
	Mesh Mesh
	// Img is the reusable framebuffer (managed by ReuseImage).
	Img *Image
	// ZBuf is the reusable depth buffer (managed by ReuseZBuf; contents are
	// not cleared — render passes initialize it).
	ZBuf []float32
	// Proj is the reusable projected-vertex buffer (managed by ReuseProj).
	Proj []Vec3
	// Bounds is storage for Options.FixedBounds so callers can frame a fixed
	// domain without allocating a box per frame.
	Bounds [2]Vec3
	// Enc is the reusable PNG encode buffer for callers that publish copies
	// of the encoded bytes themselves (Image.EncodePNG).
	Enc bytes.Buffer
}

// ReuseImage returns the scratch framebuffer resized to w x h and cleared to
// opaque black, reusing the pixel storage when it is large enough.
func (sc *FrameScratch) ReuseImage(w, h int) *Image {
	n := 4 * w * h
	if sc.Img == nil || cap(sc.Img.Pix) < n {
		sc.Img = NewImage(w, h)
		return sc.Img
	}
	sc.Img.W, sc.Img.H = w, h
	sc.Img.Pix = sc.Img.Pix[:n]
	sc.Img.Clear()
	return sc.Img
}

// ReuseZBuf returns the scratch z-buffer resized to n entries. Contents are
// unspecified; the render pass initializes them.
func (sc *FrameScratch) ReuseZBuf(n int) []float32 {
	if cap(sc.ZBuf) < n {
		sc.ZBuf = make([]float32, n)
	}
	sc.ZBuf = sc.ZBuf[:n]
	return sc.ZBuf
}

// ReuseProj returns the scratch projection buffer resized to n entries. It
// grows with a quarter of headroom: an evolving surface gains a few
// triangles most frames, and an exact fit would reallocate on each.
func (sc *FrameScratch) ReuseProj(n int) []Vec3 {
	if cap(sc.Proj) < n {
		sc.Proj = make([]Vec3, n, n+n/4)
	}
	sc.Proj = sc.Proj[:n]
	return sc.Proj
}

// Reset truncates the triangle arena for a new frame. The backing array is
// kept, so steady-state extraction re-fills it without allocating.
func (m *Mesh) Reset() { m.Vertices = m.Vertices[:0] }

// Clear resets every pixel to opaque black, reusing the storage.
func (im *Image) Clear() {
	p := im.Pix
	for i := range p {
		p[i] = 0
	}
	for i := 3; i < len(p); i += 4 {
		p[i] = 0xff
	}
}

// pngBufPool recycles the output buffers PNG() encodes into before copying
// the published bytes out.
var pngBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pngEncPool adapts a sync.Pool to image/png's EncoderBufferPool so the
// encoder's internal state — including its zlib writer and filter rows — is
// reused across frames instead of reallocated per encode.
type pngEncPool struct{ p sync.Pool }

func (bp *pngEncPool) Get() *png.EncoderBuffer {
	b, _ := bp.p.Get().(*png.EncoderBuffer)
	return b
}

func (bp *pngEncPool) Put(b *png.EncoderBuffer) { bp.p.Put(b) }

// pngEncoder is the shared pooled encoder. png.Encoder carries no per-encode
// state besides the pool, so concurrent use is safe. BestSpeed: monitoring
// frames are transient (a viewer holds one for a fraction of a second), so
// encode latency on the frame hot path buys more than the few percent of
// size the default compression level would save.
var pngEncoder = png.Encoder{
	CompressionLevel: png.BestSpeed,
	BufferPool:       &pngEncPool{},
}
