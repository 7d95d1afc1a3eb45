package steering

import "ricsa/internal/pipeline"

// Tree returns the session's current routing tree — one branch for a lone
// ClientNode, one per host for ClientNodes — or nil before the first CM
// consultation completes.
func (s *ManagedSession) Tree() *pipeline.VRTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Clone()
}

// Reoptimizations reports how many times the session consulted the CM.
func (s *ManagedSession) Reoptimizations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reopts
}

// Adaptations reports how many consultations the Adapter forced early.
func (s *ManagedSession) Adaptations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adapts
}
