package simengine

import "ricsa/internal/grid"

// Density snapshots the density field as a ScalarField for the
// visualization pipeline (the dataset "periodically cached" by the data
// source node in Section 2).
func (s *Sim) Density() *grid.ScalarField { return s.DensityInto(nil) }

// DensityInto is Density writing into dst, reusing its storage when the
// dimensions match; a nil (or mismatched) dst allocates. Returns the field
// written, so steady-state frame loops can snapshot without allocating.
func (s *Sim) DensityInto(dst *grid.ScalarField) *grid.ScalarField {
	f := s.reuseField(dst)
	for i, v := range s.rho {
		f.Data[i] = float32(v)
	}
	return f
}

// reuseField returns dst when it matches the sim's dimensions, else a fresh
// field.
func (s *Sim) reuseField(dst *grid.ScalarField) *grid.ScalarField {
	if dst != nil && dst.NX == s.NX && dst.NY == s.NY && dst.NZ == s.NZ {
		return dst
	}
	return grid.NewScalarField(s.NX, s.NY, s.NZ)
}

// PressureInto snapshots the pressure field (the paper's Fig. 6 shows "the
// pressure animation of stellar wind bowshock") into dst under the same
// reuse contract as DensityInto.
func (s *Sim) PressureInto(dst *grid.ScalarField) *grid.ScalarField {
	f := s.reuseField(dst)
	g1 := s.Params().Gamma - 1
	for i := range s.rho {
		r := s.rho[i]
		if r < 1e-12 {
			r = 1e-12
		}
		u, v, w := s.mx[i]/r, s.my[i]/r, s.mz[i]/r
		kin := 0.5 * r * (u*u + v*v + w*w)
		p := g1 * (s.en[i] - kin)
		if p < 0 {
			p = 0
		}
		f.Data[i] = float32(p)
	}
	return f
}
