package fec

// NumSource returns k for the current generation.
func (e *Encoder) NumSource() int { return e.k }

// NumRepair returns the repair-block count for the current generation.
func (e *Encoder) NumRepair() int { return e.nRepair }

// FrameLen returns the unpadded frame length of the current generation.
func (e *Encoder) FrameLen() int { return e.frameLen }
