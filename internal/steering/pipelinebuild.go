package steering

import (
	"ricsa/internal/cost"
	"ricsa/internal/dataset"
	"ricsa/internal/grid"
	"ricsa/internal/pipeline"
)

// DatasetStats summarizes what the CM node needs to know about a dataset to
// cost the pipeline: its size, block decomposition, and isosurface case
// statistics at the requested isovalue.
type DatasetStats struct {
	Name        string
	RawBytes    int
	BlockEdge   int
	TotalBlocks int
	ActiveBlock int // blocks passing the octree min/max cull
	CellsPer    int // cells per block (S_block)
	IsoModel    cost.IsoModel
}

// AnalyzeDataset computes block statistics and calibrates the isosurface
// model's case probabilities for the dataset at the given isovalue. The
// timing constants come from the synthetic reference calibration so results
// are machine-independent; swap in cost.MeasureIsoTiming for wall-clock
// calibration.
func AnalyzeDataset(f *grid.ScalarField, name string, blockEdge int, iso float32) DatasetStats {
	blocks := grid.Decompose(f, blockEdge)
	active := grid.ActiveBlocks(blocks, iso)
	st := DatasetStats{
		Name:        name,
		RawBytes:    f.SizeBytes(),
		BlockEdge:   blockEdge,
		TotalBlocks: len(blocks),
		ActiveBlock: len(active),
		CellsPer:    blockEdge * blockEdge * blockEdge,
	}
	st.IsoModel.TCase = cost.SyntheticIsoTiming(RefCellCost, RefTriangleCost)
	st.IsoModel.NTri = cost.TriangleYields()
	sample := cost.SampleBlocks(active, sampleStride(len(active)))
	if len(sample) == 0 {
		sample = cost.SampleBlocks(blocks, sampleStride(len(blocks)))
	}
	st.IsoModel.PCase = cost.EstimateCaseProbs(f, sample, []float32{iso})
	return st
}

// AnalyzeSpec generates the dataset named by the spec and analyzes it at its
// default isovalue.
func AnalyzeSpec(spec dataset.Spec, blockEdge int) DatasetStats {
	f := dataset.Generate(spec)
	st := AnalyzeDataset(f, spec.Name, blockEdge, dataset.DefaultIsovalue(spec.Kind))
	// Report the spec's nominal size: scaled test variants keep honest
	// sizes automatically because SizeBytes derives from dimensions.
	st.RawBytes = spec.SizeBytes()
	return st
}

// Reference cost constants for the synthetic calibration: a 2007-era PC
// (the paper's "common hardware configuration" Linux host) classified cells
// at roughly 4M cells/s and emitted triangles at roughly 1.5M/s during
// extraction; client rendering pushed ~2M small triangles/s in software.
const (
	RefCellCost     = 1.0 / 4.0e6
	RefTriangleCost = 1.0 / 1.5e6
	RefTrisPerSec   = 2.0e6
	// RefFilterBW is the throughput of the filtering/preprocessing module
	// (byte scanning plus min/max octree annotation).
	RefFilterBW = 80.0 * 1e6
	// ImageBytes is the fixed-size framebuffer the front end ships to the
	// browser (the paper saves images as fixed-size files).
	ImageBytes = 512 * 512 * 4
	// RefDisplayBW is the client-side image decode/display throughput.
	RefDisplayBW = 200.0 * 1e6
)

// BuildIsoPipeline assembles the Fig. 3 pipeline for isosurface
// visualization of a dataset: filtering (annotates and passes the raw
// data), isosurface extraction (raw -> geometry), and rendering
// (geometry -> framebuffer).
func BuildIsoPipeline(st DatasetStats) *pipeline.Pipeline {
	raw := float64(st.RawBytes)
	geo := st.IsoModel.GeometryBytes(st.ActiveBlock, st.CellsPer)
	extract := st.IsoModel.TExtraction(st.ActiveBlock, st.CellsPer)
	render := st.IsoModel.TRendering(st.ActiveBlock, st.CellsPer, RefTrisPerSec)
	return &pipeline.Pipeline{
		Name:        st.Name,
		SourceBytes: raw,
		Modules: []pipeline.Module{
			{
				Name:           "Filter",
				RefTime:        raw / RefFilterBW,
				OutBytes:       raw, // pass-through with octree annotation
				Parallelizable: true,
			},
			{
				Name:           "IsosurfaceExtract",
				RefTime:        extract,
				OutBytes:       geo,
				Parallelizable: true,
			},
			{
				Name:     "Render",
				RefTime:  render,
				OutBytes: ImageBytes,
				NeedsGPU: true,
			},
			{
				// Deliver runs at the client (the DP's destination): image
				// decode and display. Its presence lets mappings render
				// upstream and ship the framebuffer, as the cluster loops do.
				Name:     "Deliver",
				RefTime:  ImageBytes / RefDisplayBW,
				OutBytes: ImageBytes,
			},
		},
	}
}

// sampleStride keeps calibration to roughly 32 blocks.
func sampleStride(n int) int {
	if n <= 32 {
		return 1
	}
	return n / 32
}
