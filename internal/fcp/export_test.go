package fcp

// Slots reports the pool's total parallelism: worker goroutines plus the
// submitting caller.
func (p *Pool) Slots() int { return p.slots }
