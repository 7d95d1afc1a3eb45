package fec

import (
	"ricsa/internal/netsim"
)

// This file models FEC-mode frame delivery over the emulated WAN — the
// counterpart of netsim.MeasureBulkWithin, which models the NACK path
// (chunks retransmitted on a timeout sweep). An FEC frame is one burst of
// k source + ceil(k·r) repair blocks with no retransmission state: the
// frame completes at the instant any k blocks have arrived. Only when the
// seeded loss process destroys more than the provisioned repair budget
// does the flow fall back to the NACK path for the missing residue —
// counted, never stalled.

// blockHdr is the modelled per-block header: a 1-byte type, uint32
// generation, three uint16 shape fields (k, total, index) and a uint32
// frame length.
const blockHdr = 1 + 4 + 2 + 2 + 2 + 4

// frameBlock tags a delivery-model block with its owning flow, mirroring
// bulkChunk's stale-arrival protection: a block from an abandoned frame
// arriving after a later frame installed its handler must not be
// mistaken for one of the new frame's blocks.
type frameBlock struct {
	flow *int
	idx  int
}

// FrameStats reports one modelled frame delivery.
type FrameStats struct {
	// K and Repair are the generation shape; BlocksSent counts blocks the
	// channel accepted (tail-drop retries re-offer the same block and are
	// not double-counted).
	K, Repair, BlocksSent int
	// SourceGot and RepairGot count distinct blocks that arrived during
	// the coded burst; RepairUsed is how many lost source blocks the
	// repair blocks covered.
	SourceGot, RepairGot, RepairUsed int
	// Decoded reports whether the coded burst alone delivered the frame.
	Decoded bool
	// FellBack reports that loss exceeded the provisioned redundancy and
	// the missing residue was delivered over the NACK (bulk-retransmit)
	// path instead.
	FellBack bool
	// Delivered is false only when even the fallback path could not
	// complete inside the budget (dark channel).
	Delivered bool
	// Elapsed is the virtual time from first send to frame completion
	// (or the budget when undelivered).
	Elapsed netsim.Time
}

// MeasureFrameWithin models delivering one size-byte frame over ch in FEC
// mode at redundancy r, bounded by a virtual-time budget (<= 0 means
// unbounded, which requires a live channel). The caller must own the
// event loop, exactly as for netsim.MeasureBulkWithin. The block
// schedule, the loss draws, and hence the returned stats are a
// deterministic function of the network's seed and prior event history.
func MeasureFrameWithin(ch *netsim.Channel, size int, r float64, budget netsim.Time) FrameStats {
	net := ch.Network()
	k := SourceBlocksFor(size)
	nRepair := RepairBlocksFor(k, r)
	bs := (size + k - 1) / k
	st := FrameStats{K: k, Repair: nRepair}

	start := net.Now()
	deadline := netsim.Time(-1)
	if budget > 0 {
		deadline = start + budget
	}

	flow := new(int)
	got := make([]bool, k+nRepair)
	gotSrc, gotRep := 0, 0
	ch.SetHandler(func(p netsim.Packet) {
		blk, ok := p.Payload.(frameBlock)
		if !ok || blk.flow != flow || got[blk.idx] {
			return
		}
		got[blk.idx] = true
		if blk.idx < k {
			gotSrc++
		} else {
			gotRep++
		}
	})

	canceled := false
	retriesPending := 0
	var sendBlock func(idx int)
	sendBlock = func(idx int) {
		if canceled {
			return
		}
		if ch.Send(netsim.Packet{
			From:    ch.From.Name,
			To:      ch.To.Name,
			Size:    blockHdr + bs,
			Payload: frameBlock{flow: flow, idx: idx},
		}) {
			st.BlocksSent++
			return
		}
		// Tail drop: re-offer once the queue drains a little, the same
		// policy as the bulk path.
		retriesPending++
		net.Schedule(ch.Config().Delay/2+1, func() {
			retriesPending--
			sendBlock(idx)
		})
	}
	for i := 0; i < k+nRepair; i++ {
		sendBlock(i)
	}

	// Drive the event loop until the frame is decodable (any k blocks
	// arrived) or the burst is exhausted. Exhaustion is detected without
	// any retransmission state: once the channel's serialization queue has
	// drained (and no tail-drop retries are pending), every surviving
	// block arrives within one propagation delay plus jitter — any block
	// still absent after that bound was destroyed by loss. Leftover
	// in-flight packets from an earlier flow only lengthen the drain, so
	// the bound stays safe.
	settleAt := netsim.Time(-1)
	for gotSrc+gotRep < k {
		if settleAt < 0 && retriesPending == 0 && ch.Backlog() == 0 {
			cfg := ch.Config()
			settleAt = net.Now() + cfg.Delay + cfg.Jitter + 1
		}
		at, any := net.NextEventAt()
		if !any || (deadline >= 0 && at > deadline) || (settleAt >= 0 && at > settleAt) {
			break
		}
		net.RunUntil(at)
	}
	canceled = true
	ch.SetHandler(nil)

	st.SourceGot, st.RepairGot = gotSrc, gotRep
	if gotSrc+gotRep >= k {
		st.RepairUsed = k - gotSrc
		st.Decoded = true
		st.Delivered = true
		st.Elapsed = net.Now() - start
		return st
	}

	// Loss exceeded the provisioned redundancy: deliver the missing
	// residue over the NACK path (reliable bulk with retransmission),
	// inside whatever budget remains.
	st.FellBack = true
	residue := (k - gotSrc - gotRep) * bs
	remaining := netsim.Time(0)
	if deadline >= 0 {
		remaining = deadline - net.Now()
		if remaining <= 0 {
			st.Elapsed = budget
			return st
		}
	}
	_, ok := netsim.MeasureBulkWithin(ch, residue, remaining)
	st.Delivered = ok
	if ok {
		st.Elapsed = net.Now() - start
	} else {
		st.Elapsed = budget
	}
	return st
}
