// Package grid provides the volumetric data structures the visualization
// pipeline operates on: regular 3-D scalar and vector fields with cell
// indexing, trilinear sampling, and an octree-style block decomposition with
// min/max metadata used for isosurface block culling (Section 4.4.1 of the
// paper performs extraction at the block level).
package grid

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ScalarField is a regular NX x NY x NZ grid of float32 samples laid out
// x-fastest. Values are addressed by integer lattice coordinates.
type ScalarField struct {
	NX, NY, NZ int
	Data       []float32
}

// NewScalarField allocates a zero-filled field.
func NewScalarField(nx, ny, nz int) *ScalarField {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return &ScalarField{NX: nx, NY: ny, NZ: nz, Data: make([]float32, nx*ny*nz)}
}

// At returns the sample at (x, y, z).
func (f *ScalarField) At(x, y, z int) float32 { return f.Data[(z*f.NY+y)*f.NX+x] }

// Set stores v at (x, y, z).
func (f *ScalarField) Set(x, y, z int, v float32) { f.Data[(z*f.NY+y)*f.NX+x] = v }

// SizeBytes returns the payload size of the raw samples, the quantity the
// transfer-time models charge for.
func (f *ScalarField) SizeBytes() int { return 4 * len(f.Data) }

// MinMax returns the smallest and largest sample values.
func (f *ScalarField) MinMax() (float32, float32) {
	mn, mx := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range f.Data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Sample returns the trilinearly interpolated value at continuous position
// (x, y, z) in lattice coordinates. Positions outside the grid are clamped.
func (f *ScalarField) Sample(x, y, z float64) float64 {
	x = clamp(x, 0, float64(f.NX-1))
	y = clamp(y, 0, float64(f.NY-1))
	z = clamp(z, 0, float64(f.NZ-1))
	x0, y0, z0 := int(x), int(y), int(z)
	x1, y1, z1 := min(x0+1, f.NX-1), min(y0+1, f.NY-1), min(z0+1, f.NZ-1)
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)

	c000 := float64(f.At(x0, y0, z0))
	c100 := float64(f.At(x1, y0, z0))
	c010 := float64(f.At(x0, y1, z0))
	c110 := float64(f.At(x1, y1, z0))
	c001 := float64(f.At(x0, y0, z1))
	c101 := float64(f.At(x1, y0, z1))
	c011 := float64(f.At(x0, y1, z1))
	c111 := float64(f.At(x1, y1, z1))

	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

// Gradient returns the central-difference gradient at lattice point (x,y,z),
// used for shading normals.
func (f *ScalarField) Gradient(x, y, z int) (gx, gy, gz float64) {
	sample := func(i, j, k int) float64 {
		i = iclamp(i, 0, f.NX-1)
		j = iclamp(j, 0, f.NY-1)
		k = iclamp(k, 0, f.NZ-1)
		return float64(f.At(i, j, k))
	}
	gx = (sample(x+1, y, z) - sample(x-1, y, z)) / 2
	gy = (sample(x, y+1, z) - sample(x, y-1, z)) / 2
	gz = (sample(x, y, z+1) - sample(x, y, z-1)) / 2
	return gx, gy, gz
}

// Fill sets every sample to fn(x, y, z) evaluated at lattice coordinates.
func (f *ScalarField) Fill(fn func(x, y, z int) float32) {
	i := 0
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				f.Data[i] = fn(x, y, z)
				i++
			}
		}
	}
}

// WriteTo serializes the field (dimensions then raw little-endian samples).
func (f *ScalarField) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(f.NX))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.NY))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.NZ))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 4*len(f.Data))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	n, err = w.Write(buf)
	return total + int64(n), err
}

// VectorField is a regular grid of 3-component float32 vectors, used by the
// streamline module.
type VectorField struct {
	NX, NY, NZ int
	U, V, W    []float32
}

// NewVectorField allocates a zero vector field.
func NewVectorField(nx, ny, nz int) *VectorField {
	n := nx * ny * nz
	return &VectorField{NX: nx, NY: ny, NZ: nz,
		U: make([]float32, n), V: make([]float32, n), W: make([]float32, n)}
}

// Set stores the vector at lattice point (x, y, z).
func (f *VectorField) Set(x, y, z int, u, v, w float32) {
	i := (z*f.NY+y)*f.NX + x
	f.U[i], f.V[i], f.W[i] = u, v, w
}

// Sample returns the trilinearly interpolated vector at continuous position
// (x, y, z); positions outside the grid are clamped.
func (f *VectorField) Sample(x, y, z float64) (u, v, w float64) {
	x = clamp(x, 0, float64(f.NX-1))
	y = clamp(y, 0, float64(f.NY-1))
	z = clamp(z, 0, float64(f.NZ-1))
	x0, y0, z0 := int(x), int(y), int(z)
	x1, y1, z1 := min(x0+1, f.NX-1), min(y0+1, f.NY-1), min(z0+1, f.NZ-1)
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)

	lerp3 := func(d []float32) float64 {
		at := func(i, j, k int) float64 { return float64(d[(k*f.NY+j)*f.NX+i]) }
		c00 := at(x0, y0, z0) + fx*(at(x1, y0, z0)-at(x0, y0, z0))
		c10 := at(x0, y1, z0) + fx*(at(x1, y1, z0)-at(x0, y1, z0))
		c01 := at(x0, y0, z1) + fx*(at(x1, y0, z1)-at(x0, y0, z1))
		c11 := at(x0, y1, z1) + fx*(at(x1, y1, z1)-at(x0, y1, z1))
		c0 := c00 + fy*(c10-c00)
		c1 := c01 + fy*(c11-c01)
		return c0 + fz*(c1-c0)
	}
	return lerp3(f.U), lerp3(f.V), lerp3(f.W)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func iclamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
