package simengine

// TotalMass integrates density over the domain (cell volume dx^3), a
// conservation diagnostic.
func (s *Sim) TotalMass() float64 {
	var sum float64
	for i, v := range s.rho {
		if !s.solid[i] {
			sum += v
		}
	}
	return sum * s.dx * s.dx * s.dx
}

// DensityProfile returns the density along the x axis at the pencil
// (y, z) — the 1-D curve the Sod verification compares against the exact
// Riemann solution.
func (s *Sim) DensityProfile(y, z int) []float64 {
	out := make([]float64, s.NX)
	for x := 0; x < s.NX; x++ {
		out[x] = s.rho[s.idx(x, y, z)]
	}
	return out
}
