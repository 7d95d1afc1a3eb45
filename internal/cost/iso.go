// Package cost implements the paper's performance-estimation machinery
// (Sections 4.3 and 4.4): statistical cost models for isosurface
// extraction, ray casting, and streamline generation, and the effective
// path bandwidth (EPB) estimator that turns active network measurements
// into the transfer-time parameters of the pipeline optimizer.
//
// Each visualization model exists in two calibrations:
//
//   - Measured: per-case constants timed on the local host, reproducing the
//     paper's preprocessing step ("run the algorithm ... mark down the
//     frequency of the related cells ... and the time spent on each case").
//   - Synthetic: operation-count constants on a nominal reference node,
//     which keeps the end-to-end delay experiments deterministic.
package cost

import (
	"time"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

// NumCases aliases the canonical marching-cubes case count.
const NumCases = marchingcubes.NumCases

// IsoModel is the isosurface performance model of Eqs. 4-6. Times are
// seconds on a node of normalized power 1; divide by the node's power to
// place the module elsewhere.
type IsoModel struct {
	// TCase[i] is the extraction time per cell of canonical case i.
	TCase [NumCases]float64
	// NTri[i] is the mean triangle yield per cell of case i (Eq. 6's
	// n_triangle(i)).
	NTri [NumCases]float64
	// PCase[i] is the probability of case i for the target dataset and
	// isovalue population (Eq. 5's P_Case(i)).
	PCase [NumCases]float64
}

// TBlock returns t_block(S_block) per Eq. 5: the expected extraction time of
// one block of sBlock cells.
func (m *IsoModel) TBlock(sBlock int) float64 {
	var sum float64
	for i := 0; i < NumCases; i++ {
		sum += m.TCase[i] * m.PCase[i]
	}
	return float64(sBlock) * sum
}

// TExtraction returns t_extraction per Eq. 4 for nBlocks active blocks of
// sBlock cells each.
func (m *IsoModel) TExtraction(nBlocks, sBlock int) float64 {
	return float64(nBlocks) * m.TBlock(sBlock)
}

// Triangles returns the expected extracted triangle count per Eq. 6's inner
// sum: nBlocks x sBlock x sum(n_triangle(i) P_Case(i)).
func (m *IsoModel) Triangles(nBlocks, sBlock int) float64 {
	var sum float64
	for i := 0; i < NumCases; i++ {
		sum += m.NTri[i] * m.PCase[i]
	}
	return float64(nBlocks) * float64(sBlock) * sum
}

// TRendering returns the rendering time estimate of Eq. 6 given the node's
// triangle throughput (triangles/second).
func (m *IsoModel) TRendering(nBlocks, sBlock int, trisPerSec float64) float64 {
	if trisPerSec <= 0 {
		return 0
	}
	return m.Triangles(nBlocks, sBlock) / trisPerSec
}

// GeometryBytes estimates the size of the extracted geometry (triangle soup
// at 36 bytes per triangle), the m_j of the transformation module's output.
func (m *IsoModel) GeometryBytes(nBlocks, sBlock int) float64 {
	return 36 * m.Triangles(nBlocks, sBlock)
}

// caseConfigs[i] lists the 8-bit corner configurations belonging to
// canonical case i.
func caseConfigs() [NumCases][]uint8 {
	var out [NumCases][]uint8
	for cfg := 0; cfg < 256; cfg++ {
		c := marchingcubes.CanonicalCase(uint8(cfg))
		out[c] = append(out[c], uint8(cfg))
	}
	return out
}

// cellForConfig builds a 2x2x2 field whose single cell has the given corner
// configuration at isovalue 0.5.
func cellForConfig(cfg uint8) *grid.ScalarField {
	f := grid.NewScalarField(2, 2, 2)
	for c := 0; c < 8; c++ {
		v := float32(0.0)
		if cfg&(1<<c) != 0 {
			v = 1.0
		}
		f.Set(c&1, (c>>1)&1, (c>>2)&1, v)
	}
	return f
}

// TriangleYields returns, for each canonical case, the mean triangle count
// the extractor produces over the case's configurations. It is exact and
// deterministic (no timing involved).
func TriangleYields() [NumCases]float64 {
	var out [NumCases]float64
	unit := grid.Block{NX: 1, NY: 1, NZ: 1}
	for i, cfgs := range caseConfigs() {
		total := 0
		for _, cfg := range cfgs {
			f := cellForConfig(cfg)
			total += marchingcubes.ExtractBlock(f, unit, 0.5).TriangleCount()
		}
		out[i] = float64(total) / float64(len(cfgs))
	}
	return out
}

// MeasureIsoTiming times single-cell extraction per canonical case on this
// host, averaging reps repetitions over every configuration in the case.
// A mesh is reused across calls so the per-cell figure matches the batch
// extraction path rather than charging an allocation per cell. This is the
// paper's preprocessing measurement.
func MeasureIsoTiming(reps int) (tCase [NumCases]float64) {
	if reps < 1 {
		reps = 1
	}
	unit := grid.Block{NX: 1, NY: 1, NZ: 1}
	var scratch viz.Mesh
	for i, cfgs := range caseConfigs() {
		fields := make([]*grid.ScalarField, len(cfgs))
		for j, cfg := range cfgs {
			fields[j] = cellForConfig(cfg)
		}
		// Warm the scratch mesh so growth doesn't land in the timing.
		for _, f := range fields {
			scratch.Vertices = scratch.Vertices[:0]
			marchingcubes.ExtractBlockInto(&scratch, f, unit, 0.5)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, f := range fields {
				scratch.Vertices = scratch.Vertices[:0]
				marchingcubes.ExtractBlockInto(&scratch, f, unit, 0.5)
			}
		}
		elapsed := time.Since(start).Seconds()
		tCase[i] = elapsed / float64(reps*len(cfgs))
	}
	return tCase
}

// SyntheticIsoTiming builds deterministic per-case times on a nominal
// reference node: a fixed cell-classification cost plus a per-triangle
// cost, using the exact triangle yields. cellCost and triCost are seconds.
func SyntheticIsoTiming(cellCost, triCost float64) (tCase [NumCases]float64) {
	yields := TriangleYields()
	for i := range tCase {
		tCase[i] = cellCost + triCost*yields[i]
	}
	return tCase
}

// EstimateCaseProbs estimates PCase for a dataset by histogramming cell
// cases over the given blocks and isovalues — the paper's "large number of
// possible isovalues" sampling, restricted to a sample of blocks so the
// preprocessing overhead stays reasonable.
func EstimateCaseProbs(f *grid.ScalarField, blocks []grid.Block, isovalues []float32) [NumCases]float64 {
	var h [NumCases]float64
	var total float64
	for _, iso := range isovalues {
		for _, b := range blocks {
			hist := marchingcubes.CaseHistogram(f, b, iso)
			for i, n := range hist {
				h[i] += float64(n)
				total += float64(n)
			}
		}
	}
	if total == 0 {
		h[marchingcubes.EmptyCase()] = 1
		return h
	}
	for i := range h {
		h[i] /= total
	}
	return h
}

// SampleBlocks picks every strideth block, giving a cheap calibration
// subset.
func SampleBlocks(blocks []grid.Block, stride int) []grid.Block {
	if stride < 1 {
		stride = 1
	}
	var out []grid.Block
	for i := 0; i < len(blocks); i += stride {
		out = append(out, blocks[i])
	}
	return out
}
