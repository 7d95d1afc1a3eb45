package fec

// Encoder turns one frame into a generation of k source blocks plus
// repair blocks. All buffers are owned by the encoder and grown once, so
// the steady state — same generation shape frame after frame — allocates
// nothing (the warm path the AllocsPerRun regression test pins).
type Encoder struct {
	k, nRepair, blockSize, frameLen int
	src                             []byte // k·blockSize, zero-padded frame copy
	rep                             []byte // nRepair·blockSize
}

// NewEncoder returns an empty encoder; buffers are sized lazily by the
// first Encode and reused afterwards.
func NewEncoder() *Encoder { return &Encoder{} }

// Encode splits frame into k source blocks (block size ceil(len/k)) and
// computes nRepair Cauchy repair blocks. The previous generation's blocks
// are invalidated. This is the sender's per-frame hot path: after the
// first call at a given shape it performs no allocation.
//
//ricsa:noalloc
func (e *Encoder) Encode(frame []byte, k, nRepair int) error {
	if k < 1 || k > MaxSourceBlocks || nRepair < 0 || k+nRepair > MaxTotalBlocks {
		return ErrGenerationShape
	}
	if len(frame) == 0 || len(frame) > k*MaxBlockBytes {
		return ErrFrameSize
	}
	bs := (len(frame) + k - 1) / k
	e.k, e.nRepair, e.blockSize, e.frameLen = k, nRepair, bs, len(frame)

	need := k * bs
	if cap(e.src) < need {
		e.src = make([]byte, need)
	} else {
		e.src = e.src[:need]
	}
	n := copy(e.src, frame)
	for i := n; i < need; i++ {
		e.src[i] = 0
	}

	needR := nRepair * bs
	if cap(e.rep) < needR {
		e.rep = make([]byte, needR)
	} else {
		e.rep = e.rep[:needR]
	}
	for i := range e.rep {
		e.rep[i] = 0
	}
	for j := 0; j < nRepair; j++ {
		out := e.rep[j*bs : (j+1)*bs]
		for i := 0; i < k; i++ {
			xorScaled(out, e.src[i*bs:(i+1)*bs], cauchyCoeff(k, j, i))
		}
	}
	return nil
}

// BlockSize returns the current generation's block payload size.
func (e *Encoder) BlockSize() int { return e.blockSize }

// SourceBlock returns source block i's payload (aliases encoder storage,
// valid until the next Encode).
func (e *Encoder) SourceBlock(i int) []byte {
	return e.src[i*e.blockSize : (i+1)*e.blockSize]
}

// RepairBlock returns repair block j's payload (aliases encoder storage,
// valid until the next Encode).
func (e *Encoder) RepairBlock(j int) []byte {
	return e.rep[j*e.blockSize : (j+1)*e.blockSize]
}

// Decoder reconstructs one generation's frame from any k of its blocks.
// Memory is bounded by the generation shape — at most k source slots and
// k repair slots are held, never more, and Reset reuses capacity across
// generations (no retransmission state of any kind).
type Decoder struct {
	k, blockSize, frameLen int

	src   []byte // k·blockSize reassembly area
	have  []bool // per-source presence
	nHave int

	rIdx  []int  // repair row indices held (at most k)
	rData []byte // len(rIdx)·blockSize repair payloads

	// Elimination scratch, reused across decodes.
	mat     []byte
	missing []int
}

// NewDecoder returns an empty decoder; Reset establishes a generation.
func NewDecoder() *Decoder { return &Decoder{} }

// Reset prepares the decoder for a generation of k source blocks of the
// given block size carrying a frameLen-byte frame. Capacity from earlier
// generations is reused.
func (d *Decoder) Reset(k, blockSize, frameLen int) error {
	if k < 1 || k > MaxSourceBlocks || blockSize < 1 || blockSize > MaxBlockBytes {
		return ErrGenerationShape
	}
	if frameLen < 1 || frameLen > k*blockSize {
		return ErrFrameSize
	}
	d.k, d.blockSize, d.frameLen = k, blockSize, frameLen
	need := k * blockSize
	if cap(d.src) < need {
		d.src = make([]byte, need)
	} else {
		d.src = d.src[:need]
	}
	if cap(d.have) < k {
		d.have = make([]bool, k)
	} else {
		d.have = d.have[:k]
		for i := range d.have {
			d.have[i] = false
		}
	}
	d.nHave = 0
	d.rIdx = d.rIdx[:0]
	d.rData = d.rData[:0]
	return nil
}

// AddSource ingests source block i. Duplicates are ignored.
func (d *Decoder) AddSource(i int, data []byte) error {
	if i < 0 || i >= d.k {
		return ErrBlockIndex
	}
	if len(data) != d.blockSize {
		return ErrBlockSize
	}
	if d.have[i] {
		return nil
	}
	copy(d.src[i*d.blockSize:], data)
	d.have[i] = true
	d.nHave++
	return nil
}

// AddRepair ingests repair block j. Duplicates are ignored, and once k
// repair blocks are held further ones are dropped — more than k can never
// be needed, which is what bounds the decoder's memory.
func (d *Decoder) AddRepair(j int, data []byte) error {
	if j < 0 || d.k+j >= MaxTotalBlocks {
		return ErrBlockIndex
	}
	if len(data) != d.blockSize {
		return ErrBlockSize
	}
	if len(d.rIdx) >= d.k {
		return nil
	}
	for _, held := range d.rIdx {
		if held == j {
			return nil
		}
	}
	d.rIdx = append(d.rIdx, j)
	d.rData = append(d.rData, data...)
	return nil
}

// Ready reports whether enough blocks are held to reconstruct the frame
// (any k of the generation's blocks).
func (d *Decoder) Ready() bool { return d.k > 0 && d.nHave+len(d.rIdx) >= d.k }

// Decode reconstructs and returns the frame (aliasing decoder storage,
// valid until the next Reset). Missing source blocks are solved by
// Gauss-Jordan elimination over GF(256) against the held repair rows; the
// Cauchy generator guarantees the system is solvable whenever Ready.
func (d *Decoder) Decode() ([]byte, error) {
	if !d.Ready() {
		return nil, ErrInsufficient
	}
	d.missing = d.missing[:0]
	for i := 0; i < d.k; i++ {
		if !d.have[i] {
			d.missing = append(d.missing, i)
		}
	}
	m := len(d.missing)
	if m == 0 {
		return d.src[:d.frameLen], nil
	}

	// Reduce each repair row by the source blocks already present, so row
	// a becomes a linear combination of only the missing blocks.
	bs := d.blockSize
	for a := 0; a < m; a++ {
		row := d.rData[a*bs : (a+1)*bs]
		for i := 0; i < d.k; i++ {
			if d.have[i] {
				xorScaled(row, d.src[i*bs:(i+1)*bs], cauchyCoeff(d.k, d.rIdx[a], i))
			}
		}
	}

	// Build the m×m system and run Gauss-Jordan, mirroring every row
	// operation on the repair payloads.
	if cap(d.mat) < m*m {
		d.mat = make([]byte, m*m)
	} else {
		d.mat = d.mat[:m*m]
	}
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			d.mat[a*m+b] = cauchyCoeff(d.k, d.rIdx[a], d.missing[b])
		}
	}
	for col := 0; col < m; col++ {
		p := col
		for p < m && d.mat[p*m+col] == 0 {
			p++
		}
		if p == m {
			return nil, ErrInsufficient // cannot happen with Cauchy rows
		}
		if p != col {
			for b := 0; b < m; b++ {
				d.mat[p*m+b], d.mat[col*m+b] = d.mat[col*m+b], d.mat[p*m+b]
			}
			pr := d.rData[p*bs : (p+1)*bs]
			cr := d.rData[col*bs : (col+1)*bs]
			for b := range pr {
				pr[b], cr[b] = cr[b], pr[b]
			}
		}
		inv := gfInv(d.mat[col*m+col])
		if inv != 1 {
			li := int(gfLog[inv])
			for b := 0; b < m; b++ {
				if v := d.mat[col*m+b]; v != 0 {
					d.mat[col*m+b] = gfExp[li+int(gfLog[v])]
				}
			}
			row := d.rData[col*bs : (col+1)*bs]
			for b, v := range row {
				if v != 0 {
					row[b] = gfExp[li+int(gfLog[v])]
				}
			}
		}
		for row := 0; row < m; row++ {
			if row == col {
				continue
			}
			f := d.mat[row*m+col]
			if f == 0 {
				continue
			}
			lf := int(gfLog[f])
			for b := 0; b < m; b++ {
				if v := d.mat[col*m+b]; v != 0 {
					d.mat[row*m+b] ^= gfExp[lf+int(gfLog[v])]
				}
			}
			xorScaled(d.rData[row*bs:(row+1)*bs], d.rData[col*bs:(col+1)*bs], f)
		}
	}
	for a := 0; a < m; a++ {
		i := d.missing[a]
		copy(d.src[i*bs:(i+1)*bs], d.rData[a*bs:(a+1)*bs])
		d.have[i] = true
	}
	d.nHave = d.k
	return d.src[:d.frameLen], nil
}
