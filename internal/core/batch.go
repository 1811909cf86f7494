package core

import (
	"encoding/binary"
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// Batched direct calls: a client submits up to MaxBatch requests through
// one trampoline+VMFUNC round trip. The per-pair shared buffer doubles as
// a request ring: the head of the buffer holds one fixed-size ring entry
// per request (argument registers and payload length, later overwritten
// with the response registers and reply length), and the tail is divided
// into equal payload slots, one per request. The calling-key check runs
// once per crossing — the key authenticates the connection, not the
// individual request — while payload-length validation stays per request
// on both sides of the switch, so one oversized entry cannot smuggle
// bytes beyond its slot.
const (
	// entryLen is one batch or async-ring entry (encodeEntry).
	entryLen = 48
	// MaxBatch bounds the ring so the header area cannot swallow the
	// payload area of the smallest (4-page) shared buffer.
	MaxBatch = 32
	// batchSlotMin is the floor on a ring slot: even a batch of
	// register-only or tiny-payload requests reserves this much per slot
	// so replies (which the client cannot size in advance) have room.
	batchSlotMin = 256
	// costBatchDispatch is the server trampoline's per-entry bookkeeping
	// (ring index advance, slot bounds arithmetic) beyond the charged
	// header reads and writes.
	costBatchDispatch = 8
)

// BatchLayout describes where a batch of N requests lives inside a
// connection's shared buffer.
type BatchLayout struct {
	N       int
	SlotLen int // payload bytes available to each request
	payBase int
}

// HdrOff returns the buffer offset of ring entry i.
func (l BatchLayout) HdrOff(i int) int { return i * entryLen }

// PayloadOff returns the buffer offset of request i's payload slot.
func (l BatchLayout) PayloadOff(i int) int { return l.payBase + i*l.SlotLen }

// Layout computes the ring layout for a batch of n requests whose
// largest payload is cap bytes. Slots are packed — sized to the batch's
// actual payload capacity (floored at batchSlotMin for replies, rounded
// up to a cache line) rather than dividing the whole buffer — so a small
// batch reuses a small, warm region of the shared buffer instead of
// scattering slots across all four pages. Client staging and server
// dispatch both derive the layout from (n, max request length), so they
// agree on every offset without exchanging it.
func (conn *Connection) Layout(n, cap int) (BatchLayout, error) {
	if n < 1 || n > MaxBatch {
		return BatchLayout{}, fmt.Errorf("core: batch of %d requests (max %d)", n, MaxBatch)
	}
	if cap < 0 {
		return BatchLayout{}, fmt.Errorf("core: negative batch payload capacity %d", cap)
	}
	// Reject oversized capacities before the rounding arithmetic below: a
	// cap near MaxInt would wrap (cap + hw.LineSize - 1 goes negative),
	// slip past the total-size check, and hand back slot offsets outside
	// the shared buffer — silent ring corruption instead of an error.
	if cap > conn.BufLen {
		return BatchLayout{}, fmt.Errorf("core: batch payload capacity %d exceeds shared buffer %d",
			cap, conn.BufLen)
	}
	if cap < batchSlotMin {
		cap = batchSlotMin
	}
	payBase := (n*entryLen + hw.LineSize - 1) &^ (hw.LineSize - 1)
	slot := (cap + hw.LineSize - 1) &^ (hw.LineSize - 1)
	if payBase+n*slot > conn.BufLen {
		return BatchLayout{}, fmt.Errorf("core: shared buffer %d too small for batch of %d x %d-byte slots",
			conn.BufLen, n, slot)
	}
	return BatchLayout{N: n, SlotLen: slot, payBase: payBase}, nil
}

// batchCap returns the slot capacity a batch of requests needs: the
// largest request payload or declared reply capacity (Layout floors it at
// batchSlotMin).
func batchCap(reqs []Request) int {
	cap := 0
	for i := range reqs {
		if reqs[i].Len > cap {
			cap = reqs[i].Len
		}
		if reqs[i].Cap > cap {
			cap = reqs[i].Cap
		}
	}
	return cap
}

// encodeEntry packs one batch or async-ring entry into b: the 4 argument
// or result registers, the payload length, the sequence tag and the
// tenant tag, zero-padded to a 48-byte stride. Batch entries carry zero
// tags.
func encodeEntry(b *[entryLen]byte, regs [4]uint64, plen int, seq, tenant uint32) []byte {
	*b = [entryLen]byte{}
	for i, r := range regs {
		binary.LittleEndian.PutUint64(b[8*i:], r)
	}
	binary.LittleEndian.PutUint32(b[32:], uint32(plen))
	binary.LittleEndian.PutUint32(b[36:], seq)
	binary.LittleEndian.PutUint32(b[40:], tenant)
	return b[:]
}

// decodeEntry unpacks one entry. The length converts through int32 so
// garbage in the high bit surfaces as a negative (rejectable) length.
func decodeEntry(b *[entryLen]byte) (regs [4]uint64, plen int, seq, tenant uint32) {
	for i := range regs {
		regs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return regs, int(int32(binary.LittleEndian.Uint32(b[32:]))),
		binary.LittleEndian.Uint32(b[36:]), binary.LittleEndian.Uint32(b[40:])
}

// DirectCallBatch submits reqs to serverID through a single trampoline
// round trip (one VMFUNC each way), dispatching the server's handler once
// per request. Per-request payloads live in equal slots of the shared
// buffer (Layout); a request whose Buf already points at its slot skips
// the staging copy. Responses come back in submission order. A batch of
// one degenerates to DirectCall; DoS timeouts (DirectCallTimeout) apply
// only to unbatched calls.
func (sb *SkyBridge) DirectCallBatch(env *mk.Env, serverID int, reqs []Request) ([]Response, error) {
	switch len(reqs) {
	case 0:
		return nil, nil
	case 1:
		resp, err := sb.DirectCall(env, serverID, reqs[0])
		if err != nil {
			return nil, err
		}
		return []Response{resp}, nil
	}

	conn, ok := sb.bindings[env.P][serverID]
	if !ok {
		return nil, ErrNotRegistered
	}
	layout, err := conn.Layout(len(reqs), batchCap(reqs))
	if err != nil {
		return nil, err
	}
	x := crossing{sb: sb, conn: conn}
	if err := x.enter(env, "skybridge.batch", "flow.batch", obs.FlowBatch, &sb.BatchCalls); err != nil {
		return nil, err
	}

	// --- client-side trampoline: stage the ring ---
	var e [entryLen]byte
	for i := range reqs {
		req := &reqs[i]
		// Per-request validation, client side: the payload must fit the
		// request's slot, not just the whole buffer.
		if req.Len > layout.SlotLen {
			return nil, x.fail(fmt.Errorf("core: batch request %d payload %d exceeds slot %d", i, req.Len, layout.SlotLen))
		}
		slotVA := conn.ClientBuf + hw.VA(layout.PayloadOff(i))
		if req.Len > 0 && req.Buf != slotVA {
			data := make([]byte, req.Len)
			env.Read(req.Buf, data, req.Len)
			env.Write(slotVA, data, req.Len)
		}
		env.Write(conn.ClientBuf+hw.VA(layout.HdrOff(i)), encodeEntry(&e, req.Regs, req.Len, 0, 0), entryLen)
	}

	// --- one slot resolve + one EPTP switch for the whole batch; the key
	// check runs once per crossing ---
	if err := x.switchIn(); err != nil {
		return nil, err
	}

	// --- dispatch the ring ---
	// Per-request handler windows for the attribution records: requests
	// late in the batch wait (ring-wait) behind earlier handlers, and
	// early ones wait (reap-delay) for the batch to turn around.
	cpu, senv, srv := x.cpu, x.senv, conn.Server
	d0 := cpu.Clock
	var hs, he [MaxBatch]uint64
	for i := range reqs {
		cpu.Tick(costBatchDispatch)
		x.tr.FlowStep(cpu.Clock, x.fid, "flow.dispatch", "flow")
		senv.Read(conn.ServerBuf+hw.VA(layout.HdrOff(i)), e[:], entryLen)
		regs, plen, _, _ := decodeEntry(&e)
		// Per-request validation, server side: a ring entry rewritten by
		// a malicious client thread between staging and dispatch must
		// still confine the payload to its slot.
		if plen > layout.SlotLen || plen < 0 {
			return nil, x.abort(fmt.Errorf("core: batch entry %d length %d exceeds slot %d", i, plen, layout.SlotLen))
		}
		srv.Calls++
		hs[i] = cpu.Clock
		resp := srv.Handler(senv, Request{
			Regs:      regs,
			Len:       plen,
			SharedBuf: conn.ServerBuf + hw.VA(layout.PayloadOff(i)),
		})
		he[i] = cpu.Clock
		if resp.Len > layout.SlotLen || resp.Len < 0 {
			return nil, x.abort(fmt.Errorf("core: batch reply %d length %d exceeds slot %d", i, resp.Len, layout.SlotLen))
		}
		senv.Write(conn.ServerBuf+hw.VA(layout.HdrOff(i)), encodeEntry(&e, resp.Regs, resp.Len, 0, 0), entryLen)
	}

	// --- return thunk: one switch back ---
	if err := x.leave(); err != nil {
		return nil, err
	}

	// --- client reads the responses out of the ring ---
	resps := make([]Response, len(reqs))
	for i := range resps {
		env.Read(conn.ClientBuf+hw.VA(layout.HdrOff(i)), e[:], entryLen)
		regs, plen, _, _ := decodeEntry(&e)
		resps[i] = Response{Regs: regs, Len: plen}
	}
	sb.DirectCalls += uint64(len(reqs))
	sb.BatchCalls++
	if x.tr != nil {
		x.phases()
		x.tr.End(x.span, cpu.Clock,
			obs.U("server", uint64(serverID)),
			obs.U("batch", uint64(len(reqs))),
			obs.U("trampoline", x.tTramp-x.t0),
			obs.U("vmfunc", x.tSwitch-x.tTramp),
			obs.U("server_cycles", x.tServer-x.tSwitch),
			obs.U("return", cpu.Clock-x.tServer))
	}
	if o := sb.Calls; o != nil {
		// One record per request, all sharing the batch's [t0, end) span.
		// Exact partition per request i:
		//   crossing  = (d0-t0) + (end-dEnd)   shared staging + turnaround
		//   ring_wait = hs[i]-d0               convoy behind earlier handlers
		//   service   = he[i]-hs[i]
		//   reap_delay= dEnd-he[i]             done, batch still dispatching
		end, dEnd := cpu.Clock, x.tServer
		rec := &sb.rec
		for i := range reqs {
			*rec = obs.CallRecord{
				Flow: x.fid, Kind: obs.CallBatch, Seq: sb.BatchCalls,
				Server: serverID, Start: x.t0, End: end,
			}
			rec.Phases[obs.PhaseCrossing] = (d0 - x.t0) + (end - dEnd)
			rec.Phases[obs.PhaseRingWait] = hs[i] - d0
			rec.Phases[obs.PhaseService] = he[i] - hs[i]
			rec.Phases[obs.PhaseReapDelay] = dEnd - he[i]
			o.Observe(rec)
		}
	}
	return resps, nil
}
