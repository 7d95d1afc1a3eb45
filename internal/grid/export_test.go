package grid

// Index returns the flat index of lattice point (x, y, z).
func (f *ScalarField) Index(x, y, z int) int { return (z*f.NY+y)*f.NX + x }

// Cells returns the number of cells (voxels), (NX-1)(NY-1)(NZ-1).
func (f *ScalarField) Cells() int { return (f.NX - 1) * (f.NY - 1) * (f.NZ - 1) }
