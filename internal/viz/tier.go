package viz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/png"
)

// This file implements the viewer quality ladder's reduced encoders
// (DESIGN §14): box-filtered downscales (2x and 4x) and delta/dirty-region
// frames against a retained keyframe. Both run on the per-frame hot path of
// a live session, so they follow the FrameScratch rules — all state is
// reused across frames, and the PNG encoder is the shared pooled one.
//
// The delta wire format is a tiny deterministic container, not a PNG:
//
//	keyframe:  'R' 'K' 'F' '1'  keySeq:u32be  <full-frame PNG>
//	delta:     'R' 'D' 'F' '1'  keySeq:u32be  x0,y0,w,h:u16be  <sub-rect PNG>
//
// An empty delta (nothing changed) carries a zero rect and no PNG payload.
// keySeq names the keyframe a delta patches, so a reconstructor can detect
// a missed keyframe instead of silently compositing onto the wrong base.
//
// Every region patch is computed against the keyframe itself, never the
// previous frame: a viewer holding the keyframe plus only the *latest*
// patch reconstructs the current frame exactly, so latest-only consumers
// (the session publish model) may skip intermediate deltas safely. The
// price is rects that grow as content drifts from the key, bounded by
// KeyframeDirtyFraction forcing a fresh keyframe.

// Delta frame kinds returned by TierEncoder.EncodeDelta.
type DeltaKind uint8

const (
	// DeltaKey is a self-contained keyframe.
	DeltaKey DeltaKind = iota
	// DeltaRegion patches a dirty rectangle onto the last keyframe state.
	DeltaRegion
	// DeltaEmpty reports an unchanged frame (zero rect, no payload).
	DeltaEmpty
)

// deltaHeaderLen is the container header size: magic + keySeq for a
// keyframe, plus the four u16 rect fields for a delta.
const (
	deltaKeyHeaderLen    = 8
	deltaRegionHeaderLen = 16
)

// KeyframeDirtyFraction is the dirty-area fraction above which EncodeDelta
// emits a fresh keyframe instead of a region patch: past it the sub-rect
// PNG approaches full-frame cost while adding patch bookkeeping.
const KeyframeDirtyFraction = 0.5

// TierEncoder holds one session's reusable ladder state: the downscale
// target framebuffer and the retained delta keyframe. The zero value is
// ready to use; a session owns one encoder per distinct reduced tier
// stream it serves. Not safe for concurrent use.
type TierEncoder struct {
	small  Image  // reused downscale target
	keyPix []byte // retained keyframe pixels (delta reference)
	keyW   int
	keyH   int
	keySeq uint32
	hasKey bool
	// Cached result of the last dirty scan against the key, reused by the
	// unchangedHint fast path: when the frame content is unchanged, its
	// diff against the keyframe is unchanged too.
	lastX0, lastY0, lastX1, lastY1 int
	lastDirty                      bool
}

// Downscale box-filters src by the integer factor (2 or 4 on the ladder)
// into the encoder's reusable target and returns it. Output dimensions are
// the ceiling division, with edge blocks averaging only their in-bounds
// samples, so any source size round-trips. The returned image is owned by
// the encoder and overwritten by the next call.
//
//ricsa:noalloc
func (e *TierEncoder) Downscale(src *Image, factor int) *Image {
	if factor < 1 {
		factor = 1
	}
	w := (src.W + factor - 1) / factor
	h := (src.H + factor - 1) / factor
	n := 4 * w * h
	if cap(e.small.Pix) < n {
		e.small.Pix = make([]uint8, n)
	}
	e.small.W, e.small.H, e.small.Pix = w, h, e.small.Pix[:n]
	for oy := 0; oy < h; oy++ {
		y0 := oy * factor
		y1 := y0 + factor
		if y1 > src.H {
			y1 = src.H
		}
		for ox := 0; ox < w; ox++ {
			x0 := ox * factor
			x1 := x0 + factor
			if x1 > src.W {
				x1 = src.W
			}
			var r, g, b, a, cnt uint32
			for y := y0; y < y1; y++ {
				row := src.Pix[4*(y*src.W+x0) : 4*(y*src.W+x1)]
				for i := 0; i+3 < len(row); i += 4 {
					r += uint32(row[i])
					g += uint32(row[i+1])
					b += uint32(row[i+2])
					a += uint32(row[i+3])
					cnt++
				}
			}
			o := 4 * (oy*w + ox)
			e.small.Pix[o] = uint8(r / cnt)
			e.small.Pix[o+1] = uint8(g / cnt)
			e.small.Pix[o+2] = uint8(b / cnt)
			e.small.Pix[o+3] = uint8(a / cnt)
		}
	}
	return &e.small
}

// EncodeDownscaled box-filters src by factor and PNG-encodes the result
// into buf (which is reset first). Steady state is allocation-flat: the
// target framebuffer is reused and the PNG encoder state is pooled.
//
//ricsa:noalloc
func (e *TierEncoder) EncodeDownscaled(src *Image, factor int, buf *bytes.Buffer) error {
	buf.Reset()
	return e.Downscale(src, factor).EncodePNG(buf)
}

// EncodeDelta encodes img against the retained keyframe into buf (reset
// first). unchangedHint, when true, asserts the caller knows the frame
// content is identical to the previously encoded one (the dirty-block ROI
// cache re-extracted nothing and the view is unchanged), skipping the
// pixel scan and reusing the last scan's rect. A keyframe is emitted when
// there is no retained key, when the frame geometry changed, or when the
// dirty area exceeds KeyframeDirtyFraction.
//
//ricsa:noalloc
func (e *TierEncoder) EncodeDelta(img *Image, unchangedHint bool, buf *bytes.Buffer) (DeltaKind, error) {
	buf.Reset()
	if !e.hasKey || img.W != e.keyW || img.H != e.keyH {
		return DeltaKey, e.encodeKeyframe(img, buf)
	}
	var x0, y0, x1, y1 int
	var dirty bool
	if unchangedHint {
		x0, y0, x1, y1, dirty = e.lastX0, e.lastY0, e.lastX1, e.lastY1, e.lastDirty
	} else {
		x0, y0, x1, y1, dirty = e.dirtyRect(img)
	}
	if !dirty {
		e.lastDirty = false
		return DeltaEmpty, e.encodeEmptyDelta(buf)
	}
	w, h := x1-x0, y1-y0
	if float64(w*h) > KeyframeDirtyFraction*float64(img.W*img.H) {
		return DeltaKey, e.encodeKeyframe(img, buf)
	}
	var hdr [deltaRegionHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 'R', 'D', 'F', '1'
	binary.BigEndian.PutUint32(hdr[4:8], e.keySeq)
	binary.BigEndian.PutUint16(hdr[8:10], uint16(x0))
	binary.BigEndian.PutUint16(hdr[10:12], uint16(y0))
	binary.BigEndian.PutUint16(hdr[12:14], uint16(w))
	binary.BigEndian.PutUint16(hdr[14:16], uint16(h))
	buf.Write(hdr[:])
	sub := image.RGBA{
		Pix:    img.Pix[4*(y0*img.W+x0):],
		Stride: 4 * img.W,
		Rect:   image.Rect(0, 0, w, h),
	}
	if err := pngEncoder.Encode(buf, &sub); err != nil {
		return DeltaRegion, err
	}
	// The reference stays the keyframe itself (see the file comment): the
	// cached rect only serves the unchangedHint fast path.
	e.lastX0, e.lastY0, e.lastX1, e.lastY1, e.lastDirty = x0, y0, x1, y1, true
	return DeltaRegion, nil
}

func (e *TierEncoder) encodeKeyframe(img *Image, buf *bytes.Buffer) error {
	e.keySeq++
	var hdr [deltaKeyHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 'R', 'K', 'F', '1'
	binary.BigEndian.PutUint32(hdr[4:8], e.keySeq)
	buf.Write(hdr[:])
	if err := img.EncodePNG(buf); err != nil {
		return err
	}
	if cap(e.keyPix) < len(img.Pix) {
		e.keyPix = make([]byte, len(img.Pix))
	}
	e.keyPix = e.keyPix[:len(img.Pix)]
	copy(e.keyPix, img.Pix)
	e.keyW, e.keyH, e.hasKey = img.W, img.H, true
	e.lastDirty = false
	return nil
}

func (e *TierEncoder) encodeEmptyDelta(buf *bytes.Buffer) error {
	var hdr [deltaRegionHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 'R', 'D', 'F', '1'
	binary.BigEndian.PutUint32(hdr[4:8], e.keySeq)
	buf.Write(hdr[:])
	return nil
}

// dirtyRect scans img against the retained keyframe and returns the
// bounding rectangle [x0,x1) x [y0,y1) of differing pixels.
func (e *TierEncoder) dirtyRect(img *Image) (x0, y0, x1, y1 int, dirty bool) {
	w := img.W
	rowBytes := 4 * w
	y0, y1 = -1, -1
	for y := 0; y < img.H; y++ {
		off := y * rowBytes
		if !bytes.Equal(img.Pix[off:off+rowBytes], e.keyPix[off:off+rowBytes]) {
			if y0 < 0 {
				y0 = y
			}
			y1 = y + 1
		}
	}
	if y0 < 0 {
		return 0, 0, 0, 0, false
	}
	x0, x1 = w, 0
	for y := y0; y < y1; y++ {
		off := y * rowBytes
		row, key := img.Pix[off:off+rowBytes], e.keyPix[off:off+rowBytes]
		for x := 0; x < x0; x++ {
			i := 4 * x
			if row[i] != key[i] || row[i+1] != key[i+1] || row[i+2] != key[i+2] || row[i+3] != key[i+3] {
				x0 = x
				break
			}
		}
		for x := w - 1; x >= x1; x-- {
			i := 4 * x
			if row[i] != key[i] || row[i+1] != key[i+1] || row[i+2] != key[i+2] || row[i+3] != key[i+3] {
				x1 = x + 1
				break
			}
		}
	}
	if x0 >= x1 {
		// Dirty rows whose differences cancelled column-wise cannot happen
		// (a dirty row has at least one differing pixel), but guard anyway.
		return 0, 0, 0, 0, false
	}
	return x0, y0, x1, y1, true
}

// DeltaFrame is one parsed delta-tier wire message.
type DeltaFrame struct {
	Kind   DeltaKind
	KeySeq uint32
	// X0, Y0, W, H locate a DeltaRegion patch; zero for other kinds.
	X0, Y0, W, H int
	// PNG is the embedded image payload (full frame for DeltaKey, sub-rect
	// for DeltaRegion, empty for DeltaEmpty).
	PNG []byte
}

// ErrDeltaFrame reports a malformed delta-tier message.
var ErrDeltaFrame = errors.New("viz: malformed delta frame")

// ParseDeltaFrame decodes the delta-tier container (header only — the PNG
// payload is sliced, not decoded). It never panics on hostile input.
func ParseDeltaFrame(b []byte) (DeltaFrame, error) {
	if len(b) < deltaKeyHeaderLen {
		return DeltaFrame{}, fmt.Errorf("%w: %d bytes", ErrDeltaFrame, len(b))
	}
	if b[0] != 'R' || b[2] != 'F' || b[3] != '1' || (b[1] != 'K' && b[1] != 'D') {
		return DeltaFrame{}, fmt.Errorf("%w: bad magic %q", ErrDeltaFrame, b[:4])
	}
	f := DeltaFrame{KeySeq: binary.BigEndian.Uint32(b[4:8])}
	if b[1] == 'K' {
		f.Kind = DeltaKey
		f.PNG = b[deltaKeyHeaderLen:]
		if len(f.PNG) == 0 {
			return DeltaFrame{}, fmt.Errorf("%w: keyframe without payload", ErrDeltaFrame)
		}
		return f, nil
	}
	if len(b) < deltaRegionHeaderLen {
		return DeltaFrame{}, fmt.Errorf("%w: truncated delta header", ErrDeltaFrame)
	}
	f.X0 = int(binary.BigEndian.Uint16(b[8:10]))
	f.Y0 = int(binary.BigEndian.Uint16(b[10:12]))
	f.W = int(binary.BigEndian.Uint16(b[12:14]))
	f.H = int(binary.BigEndian.Uint16(b[14:16]))
	f.PNG = b[deltaRegionHeaderLen:]
	if f.W == 0 || f.H == 0 {
		if f.W != 0 || f.H != 0 || f.X0 != 0 || f.Y0 != 0 || len(f.PNG) != 0 {
			return DeltaFrame{}, fmt.Errorf("%w: malformed empty delta", ErrDeltaFrame)
		}
		f.Kind = DeltaEmpty
		return f, nil
	}
	f.Kind = DeltaRegion
	if len(f.PNG) == 0 {
		return DeltaFrame{}, fmt.Errorf("%w: region without payload", ErrDeltaFrame)
	}
	return f, nil
}

// DeltaDecoder is the reconstructor side of the delta tier (tests, tooling,
// and client references — not the producer hot path). It retains the
// pristine keyframe and composites every message against it, mirroring the
// encoder's keyframe-relative diffs: a keyframe plus any *single* later
// message reconstructs that message's frame exactly, so a decoder fed only
// the latest published delta stays correct.
type DeltaDecoder struct {
	key    Image // pristine keyframe pixels
	out    Image // composited output, reused across Apply calls
	keySeq uint32
	hasKey bool
}

// Apply composites one parsed frame and returns the reconstructed image.
// The returned image is owned by the decoder and overwritten by the next
// Apply. A DeltaRegion or DeltaEmpty whose KeySeq does not match the
// retained keyframe is rejected — the viewer missed a keyframe and must
// resubscribe rather than composite onto the wrong base.
func (d *DeltaDecoder) Apply(f DeltaFrame) (*Image, error) {
	switch f.Kind {
	case DeltaKey:
		img, err := png.Decode(bytes.NewReader(f.PNG))
		if err != nil {
			return nil, fmt.Errorf("viz: keyframe decode: %w", err)
		}
		k := fromStdImage(img)
		d.key = *k
		d.keySeq = f.KeySeq
		d.hasKey = true
		d.composeKey()
		return &d.out, nil
	case DeltaEmpty:
		if !d.hasKey {
			return nil, fmt.Errorf("%w: empty delta without a keyframe", ErrDeltaFrame)
		}
		if f.KeySeq != d.keySeq {
			return nil, fmt.Errorf("%w: empty delta for key %d, have %d", ErrDeltaFrame, f.KeySeq, d.keySeq)
		}
		d.composeKey()
		return &d.out, nil
	}
	if !d.hasKey {
		return nil, fmt.Errorf("%w: region patch without a keyframe", ErrDeltaFrame)
	}
	if f.KeySeq != d.keySeq {
		return nil, fmt.Errorf("%w: region patch for key %d, have %d", ErrDeltaFrame, f.KeySeq, d.keySeq)
	}
	img, err := png.Decode(bytes.NewReader(f.PNG))
	if err != nil {
		return nil, fmt.Errorf("viz: region decode: %w", err)
	}
	patch := fromStdImage(img)
	if f.X0+f.W > d.key.W || f.Y0+f.H > d.key.H || patch.W != f.W || patch.H != f.H {
		return nil, fmt.Errorf("%w: rect %dx%d+%d+%d outside %dx%d canvas",
			ErrDeltaFrame, f.W, f.H, f.X0, f.Y0, d.key.W, d.key.H)
	}
	d.composeKey()
	for y := 0; y < f.H; y++ {
		dst := 4 * ((f.Y0+y)*d.out.W + f.X0)
		src := 4 * (y * patch.W)
		copy(d.out.Pix[dst:dst+4*f.W], patch.Pix[src:src+4*f.W])
	}
	return &d.out, nil
}

// composeKey resets the output canvas to the pristine keyframe.
func (d *DeltaDecoder) composeKey() {
	n := len(d.key.Pix)
	if cap(d.out.Pix) < n {
		d.out.Pix = make([]uint8, n)
	}
	d.out.W, d.out.H, d.out.Pix = d.key.W, d.key.H, d.out.Pix[:n]
	copy(d.out.Pix, d.key.Pix)
}

// fromStdImage converts a decoded std image into a viz.Image.
func fromStdImage(img image.Image) *Image {
	b := img.Bounds()
	out := NewImage(b.Dx(), b.Dy())
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bb, a := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, uint8(r>>8), uint8(g>>8), uint8(bb>>8), uint8(a>>8))
		}
	}
	return out
}
