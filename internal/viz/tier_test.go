package viz

import (
	"bytes"
	"image/png"
	"testing"

	"ricsa/internal/testutil"
)

// testPattern fills a deterministic gradient-plus-blob image.
func testPattern(w, h, phase int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint8(x*7+phase), uint8(y*11), uint8((x+y)*3), 0xff)
		}
	}
	return im
}

func TestDownscaleBoxFilter(t *testing.T) {
	var e TierEncoder
	src := testPattern(8, 6, 0)
	out := e.Downscale(src, 2)
	if out.W != 4 || out.H != 3 {
		t.Fatalf("2x downscale of 8x6 = %dx%d, want 4x3", out.W, out.H)
	}
	// Spot-check one output pixel against the hand-computed 2x2 average.
	var r, g, b, a int
	for _, xy := range [][2]int{{2, 2}, {3, 2}, {2, 3}, {3, 3}} {
		pr, pg, pb, pa := src.At(xy[0], xy[1])
		r += int(pr)
		g += int(pg)
		b += int(pb)
		a += int(pa)
	}
	or, og, ob, oa := out.At(1, 1)
	if int(or) != r/4 || int(og) != g/4 || int(ob) != b/4 || int(oa) != a/4 {
		t.Fatalf("pixel (1,1) = %d,%d,%d,%d want %d,%d,%d,%d", or, og, ob, oa, r/4, g/4, b/4, a/4)
	}
	// Non-divisible sizes: edge blocks average their in-bounds samples only.
	odd := e.Downscale(testPattern(5, 5, 0), 4)
	if odd.W != 2 || odd.H != 2 {
		t.Fatalf("4x downscale of 5x5 = %dx%d, want 2x2", odd.W, odd.H)
	}
	// Uniform images stay uniform at any factor.
	flat := NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			flat.Set(x, y, 40, 80, 120, 0xff)
		}
	}
	down := e.Downscale(flat, 4)
	for i := 0; i+3 < len(down.Pix); i += 4 {
		if down.Pix[i] != 40 || down.Pix[i+1] != 80 || down.Pix[i+2] != 120 {
			t.Fatalf("uniform image changed under downscale at %d", i)
		}
	}
}

func TestEncodeDownscaledIsValidPNG(t *testing.T) {
	var e TierEncoder
	var buf bytes.Buffer
	src := testPattern(64, 48, 0)
	for _, factor := range []int{2, 4} {
		if err := e.EncodeDownscaled(src, factor, &buf); err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}
		img, err := png.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("factor %d: decode: %v", factor, err)
		}
		wantW := (64 + factor - 1) / factor
		if img.Bounds().Dx() != wantW {
			t.Fatalf("factor %d: width %d, want %d", factor, img.Bounds().Dx(), wantW)
		}
		if buf.Len() == 0 {
			t.Fatalf("factor %d: empty encode", factor)
		}
	}
}

// TestDeltaRoundTrip drives the encoder through keyframe, region, empty,
// and forced-keyframe transitions, reconstructing each step and requiring
// the canvas to be byte-identical to the source frame after every message.
func TestDeltaRoundTrip(t *testing.T) {
	var e TierEncoder
	var dec DeltaDecoder
	var buf bytes.Buffer

	step := func(img *Image, unchanged bool, wantKind DeltaKind, label string) {
		t.Helper()
		kind, err := e.EncodeDelta(img, unchanged, &buf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if kind != wantKind {
			t.Fatalf("%s: kind %v, want %v", label, kind, wantKind)
		}
		f, err := ParseDeltaFrame(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: parse: %v", label, err)
		}
		if f.Kind != kind {
			t.Fatalf("%s: parsed kind %v != %v", label, f.Kind, kind)
		}
		canvas, err := dec.Apply(f)
		if err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		if canvas.W != img.W || canvas.H != img.H || !bytes.Equal(canvas.Pix, img.Pix) {
			t.Fatalf("%s: reconstruction diverged from source frame", label)
		}
	}

	base := testPattern(64, 64, 0)
	step(base, false, DeltaKey, "first frame")

	// Small dirty region: a 6x5 blob.
	blob := testPattern(64, 64, 0)
	for y := 20; y < 25; y++ {
		for x := 10; x < 16; x++ {
			blob.Set(x, y, 0xff, 0, 0, 0xff)
		}
	}
	step(blob, false, DeltaRegion, "small blob")

	// Re-encoding the identical frame still diffs against the *keyframe*
	// (patches are keyframe-relative so latest-only consumers may skip),
	// so the same region is emitted again — and the unchanged hint reuses
	// the cached rect without a scan.
	step(blob, false, DeltaRegion, "re-encode identical frame")
	step(blob, true, DeltaRegion, "unchanged hint reuses rect")

	// Reverting to the keyframe content yields an empty delta.
	step(base, false, DeltaEmpty, "reverted to key")
	step(base, true, DeltaEmpty, "unchanged hint after revert")

	// A second region on top of the first widens the keyframe-relative rect.
	blob2 := testPattern(64, 64, 0)
	for y := 20; y < 25; y++ {
		for x := 10; x < 16; x++ {
			blob2.Set(x, y, 0xff, 0, 0, 0xff)
		}
	}
	for y := 50; y < 54; y++ {
		for x := 40; x < 44; x++ {
			blob2.Set(x, y, 0, 0xff, 0, 0xff)
		}
	}
	step(blob2, false, DeltaRegion, "second blob")

	// A full-frame change exceeds KeyframeDirtyFraction -> fresh keyframe.
	step(testPattern(64, 64, 90), false, DeltaKey, "full change")

	// A resolution change always forces a keyframe.
	step(testPattern(32, 32, 5), false, DeltaKey, "resize")

	// Dropping the retained key forces a keyframe for late subscribers.
	e.hasKey = false
	step(testPattern(32, 32, 5), false, DeltaKey, "invalidated key")
}

// TestDeltaLatestOnlySkipTolerance pins the property the session publish
// model depends on: a decoder that saw only the keyframe and the *latest*
// region patch — skipping every intermediate delta — reconstructs the
// current frame exactly.
func TestDeltaLatestOnlySkipTolerance(t *testing.T) {
	var e TierEncoder
	var buf bytes.Buffer

	base := testPattern(48, 48, 0)
	if _, err := e.EncodeDelta(base, false, &buf); err != nil {
		t.Fatal(err)
	}
	keyMsg := append([]byte(nil), buf.Bytes()...)

	// Three successive mutations; only the last message will be consumed.
	frames := make([]*Image, 3)
	for i := range frames {
		img := testPattern(48, 48, 0)
		for y := 5 * i; y < 5*i+4; y++ {
			for x := 3 * i; x < 3*i+6; x++ {
				img.Set(x, y, uint8(200+i), 0, 0, 0xff)
			}
		}
		frames[i] = img
		kind, err := e.EncodeDelta(img, false, &buf)
		if err != nil || kind != DeltaRegion {
			t.Fatalf("frame %d: kind %v, %v", i, kind, err)
		}
	}
	lastMsg := append([]byte(nil), buf.Bytes()...)

	var dec DeltaDecoder
	if _, err := dec.Apply(mustParse(t, keyMsg)); err != nil {
		t.Fatal(err)
	}
	out, err := dec.Apply(mustParse(t, lastMsg))
	if err != nil {
		t.Fatal(err)
	}
	want := frames[len(frames)-1]
	if !bytes.Equal(out.Pix, want.Pix) {
		t.Fatal("skip-tolerant reconstruction diverged from the latest frame")
	}
}

func TestDeltaRegionRectIsTight(t *testing.T) {
	var e TierEncoder
	var buf bytes.Buffer
	base := NewImage(32, 32)
	if _, err := e.EncodeDelta(base, false, &buf); err != nil {
		t.Fatal(err)
	}
	mod := NewImage(32, 32)
	mod.Set(5, 7, 1, 2, 3, 0xff)
	mod.Set(9, 11, 4, 5, 6, 0xff)
	kind, err := e.EncodeDelta(mod, false, &buf)
	if err != nil || kind != DeltaRegion {
		t.Fatalf("kind %v, %v", kind, err)
	}
	f, err := ParseDeltaFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.X0 != 5 || f.Y0 != 7 || f.W != 5 || f.H != 5 {
		t.Fatalf("rect %dx%d+%d+%d, want 5x5+5+7", f.W, f.H, f.X0, f.Y0)
	}
}

func TestParseDeltaFrameRejectsHostileInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{'R'},
		[]byte("RXF1aaaa"),
		[]byte("RKF1aaaa"), // keyframe with no payload
		[]byte("RDF1aaaa"), // truncated delta header
		[]byte("RDF1aaaa\x00\x01\x00\x00\x00\x00\x00\x00"), // empty rect with nonzero x0
		[]byte("RDF1aaaa\x00\x00\x00\x00\x00\x02\x00\x02"), // region with no payload
	}
	for i, b := range cases {
		if _, err := ParseDeltaFrame(b); err == nil {
			t.Fatalf("case %d: hostile input accepted", i)
		}
	}
	// A patch outside the canvas must error, not panic.
	var e TierEncoder
	var dec DeltaDecoder
	var buf bytes.Buffer
	img := testPattern(16, 16, 0)
	if _, err := e.EncodeDelta(img, false, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Apply(mustParse(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	mod := testPattern(16, 16, 0)
	mod.Set(4, 4, 0xff, 0, 0, 0xff)
	if _, err := e.EncodeDelta(mod, false, &buf); err != nil {
		t.Fatal(err)
	}
	f := mustParse(t, buf.Bytes())
	if f.Kind != DeltaRegion {
		t.Fatalf("expected a region patch, got %v", f.Kind)
	}
	bad := f
	bad.X0 = 1000
	if _, err := dec.Apply(bad); err == nil {
		t.Fatal("out-of-canvas patch accepted")
	}
	// Region patch with no prior keyframe.
	var fresh DeltaDecoder
	if _, err := fresh.Apply(f); err == nil {
		t.Fatal("region without keyframe accepted")
	}
	// Region patch against a superseded keyframe lineage.
	e.hasKey = false
	if _, err := e.EncodeDelta(img, false, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Apply(mustParse(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Apply(f); err == nil {
		t.Fatal("stale-lineage region patch accepted")
	}
}

func mustParse(t *testing.T, b []byte) DeltaFrame {
	t.Helper()
	f, err := ParseDeltaFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTierEncoderAllocationFlat pins the warm tier encode paths at (near)
// zero allocations per frame — the same contract as the full-res encode.
// The PNG encoder occasionally grows pooled state, so the pins allow the
// same 0-1 budget BENCH_budgets.json enforces.
func TestTierEncoderAllocationFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is covered by the no-race CI job")
	}
	if testutil.RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	var e TierEncoder
	var buf bytes.Buffer
	src := testPattern(256, 256, 0)
	// Warm every reuse path.
	for i := 0; i < 3; i++ {
		if err := e.EncodeDownscaled(src, 2, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := e.EncodeDownscaled(src, 2, &buf); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("warm downscale encode allocates %v/op, budget 1", avg)
	}

	var ed TierEncoder
	if _, err := ed.EncodeDelta(src, false, &buf); err != nil {
		t.Fatal(err)
	}
	mod := testPattern(256, 256, 0)
	for y := 100; y < 120; y++ {
		for x := 100; x < 130; x++ {
			mod.Set(x, y, 0xff, 0, 0, 0xff)
		}
	}
	toggle := false
	if avg := testing.AllocsPerRun(50, func() {
		img := src
		if toggle {
			img = mod
		}
		toggle = !toggle
		if _, err := ed.EncodeDelta(img, false, &buf); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("warm delta encode allocates %v/op, budget 1", avg)
	}
}
