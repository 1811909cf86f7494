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
	// batchHdrLen is one ring entry: 4 argument/result registers, a
	// payload length, and padding to a power-of-two stride.
	batchHdrLen = 48
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
func (l BatchLayout) HdrOff(i int) int { return i * batchHdrLen }

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
	payBase := (n*batchHdrLen + hw.LineSize - 1) &^ (hw.LineSize - 1)
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

// encodeEntry packs regs and a payload length into ring entry b.
func encodeEntry(b *[batchHdrLen]byte, regs [4]uint64, plen int) []byte {
	*b = [batchHdrLen]byte{}
	for i, r := range regs {
		binary.LittleEndian.PutUint64(b[8*i:], r)
	}
	binary.LittleEndian.PutUint32(b[32:], uint32(plen))
	return b[:]
}

// decodeEntry unpacks one ring entry.
func decodeEntry(b []byte) (regs [4]uint64, plen int) {
	for i := range regs {
		regs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return regs, int(binary.LittleEndian.Uint32(b[32:]))
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

	cpu := env.T.Core
	conn, ok := sb.bindings[env.P][serverID]
	if !ok {
		return nil, ErrNotRegistered
	}
	layout, err := conn.Layout(len(reqs), batchCap(reqs))
	if err != nil {
		return nil, err
	}
	srv := conn.Server
	env.T.Checkpoint()
	env.Enter()

	tr := cpu.Trace
	span := tr.Begin(cpu.Clock, "skybridge.batch", "core")
	t0 := cpu.Clock

	var fid uint64
	if tr != nil || sb.Calls != nil {
		fid = obs.FlowBatch | (sb.BatchCalls + 1)
	}
	if tr != nil {
		tr.FlowStart(t0, fid, "flow.batch", "flow")
	}

	// --- client-side trampoline: stage the ring ---
	if err := cpu.TouchCode(TrampolineVA, trampEntryLen); err != nil {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return nil, fmt.Errorf("core: trampoline fetch: %w", err)
	}
	cpu.Tick(costSaveRegs)
	clientKey := sb.rng.Uint64()
	cpu.Tick(6)
	var hdr [batchHdrLen]byte
	for i := range reqs {
		req := &reqs[i]
		// Per-request validation, client side: the payload must fit the
		// request's slot, not just the whole buffer.
		if req.Len > layout.SlotLen {
			tr.End(span, cpu.Clock, obs.U("error", 1))
			return nil, fmt.Errorf("core: batch request %d payload %d exceeds slot %d", i, req.Len, layout.SlotLen)
		}
		slotVA := conn.ClientBuf + hw.VA(layout.PayloadOff(i))
		if req.Len > 0 && req.Buf != slotVA {
			data := make([]byte, req.Len)
			env.Read(req.Buf, data, req.Len)
			env.Write(slotVA, data, req.Len)
		}
		env.Write(conn.ClientBuf+hw.VA(layout.HdrOff(i)), encodeEntry(&hdr, req.Regs, req.Len), batchHdrLen)
	}

	// --- one slot resolve + one EPTP switch for the whole batch ---
	tc := sb.chain(env)
	sb.ensureContext(cpu, tc)
	cpu.FlowID = fid
	slot, _, err := sb.RK.ResolveSlot(cpu, tc.proc, serverID, tc.stack)
	if err != nil {
		cpu.FlowID = 0
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return nil, fmt.Errorf("core: slot resolve for server %d: %w", serverID, err)
	}
	tTramp := cpu.Clock
	if err := cpu.VMFunc(0, slot); err != nil {
		cpu.FlowID = 0
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return nil, fmt.Errorf("core: vmfunc to server %d (slot %d): %w", serverID, slot, err)
	}
	cpu.FlowID = 0
	sb.afterSwitch(cpu)
	senv := tc.push(env, slot, srv.Proc)
	tSwitch := cpu.Clock

	// --- server-side trampoline: key check once per crossing ---
	cpu.Tick(costInstallStack)
	var kb [8]byte
	senv.Read(srv.keyTable+hw.VA(8*conn.slot), kb[:], 8)
	cpu.Tick(4)
	if leU64(kb) != conn.ServerKey {
		srv.Rejected++
		cpu.Syscall()
		cpu.Swapgs()
		cpu.Tick(50)
		cpu.Swapgs()
		cpu.Sysret()
		sb.switchBack(env, tc)
		tr.End(span, cpu.Clock, obs.U("bad_key", 1))
		return nil, ErrBadKey
	}

	// --- dispatch the ring ---
	// Per-request handler windows for the attribution records: requests
	// late in the batch wait (ring-wait) behind earlier handlers, and
	// early ones wait (reap-delay) for the batch to turn around.
	d0 := cpu.Clock
	var hs, he [MaxBatch]uint64
	for i := range reqs {
		cpu.Tick(costBatchDispatch)
		if tr != nil {
			tr.FlowStep(cpu.Clock, fid, "flow.dispatch", "flow")
		}
		senv.Read(conn.ServerBuf+hw.VA(layout.HdrOff(i)), hdr[:], batchHdrLen)
		regs, plen := decodeEntry(hdr[:])
		// Per-request validation, server side: a ring entry rewritten by
		// a malicious client thread between staging and dispatch must
		// still confine the payload to its slot.
		if plen > layout.SlotLen || plen < 0 {
			sb.switchBack(env, tc)
			tr.End(span, cpu.Clock, obs.U("error", 1))
			return nil, fmt.Errorf("core: batch entry %d length %d exceeds slot %d", i, plen, layout.SlotLen)
		}
		srv.Calls++
		hs[i] = cpu.Clock
		resp := srv.Handler(senv, Request{
			Regs:      regs,
			Len:       plen,
			SharedBuf: conn.ServerBuf + hw.VA(layout.PayloadOff(i)),
		})
		he[i] = cpu.Clock
		if resp.Len > layout.SlotLen {
			sb.switchBack(env, tc)
			tr.End(span, cpu.Clock, obs.U("error", 1))
			return nil, fmt.Errorf("core: batch reply %d length %d exceeds slot %d", i, resp.Len, layout.SlotLen)
		}
		senv.Write(conn.ServerBuf+hw.VA(layout.HdrOff(i)), encodeEntry(&hdr, resp.Regs, resp.Len), batchHdrLen)
	}
	tServer := cpu.Clock

	// --- return thunk: one switch back ---
	if err := cpu.TouchCode(trampReturnVA, trampReturnLen); err != nil {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return nil, fmt.Errorf("core: return thunk fetch: %w", err)
	}
	cpu.Tick(costRestoreRegs)
	sb.switchBack(env, tc)

	echoed := clientKey
	cpu.Tick(6)
	if echoed != clientKey {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return nil, ErrReturnKey
	}

	// --- client reads the responses out of the ring ---
	resps := make([]Response, len(reqs))
	for i := range resps {
		env.Read(conn.ClientBuf+hw.VA(layout.HdrOff(i)), hdr[:], batchHdrLen)
		regs, plen := decodeEntry(hdr[:])
		resps[i] = Response{Regs: regs, Len: plen}
	}
	sb.DirectCalls += uint64(len(reqs))
	sb.BatchCalls++
	if tr != nil {
		tr.Complete(t0, tTramp-t0, "phase.trampoline", "core")
		tr.Complete(tTramp, tSwitch-tTramp, "phase.vmfunc", "core")
		tr.Complete(tSwitch, tServer-tSwitch, "phase.server", "core")
		tr.Complete(tServer, cpu.Clock-tServer, "phase.return", "core")
		tr.FlowEnd(cpu.Clock, fid, "flow.batch", "flow")
		tr.End(span, cpu.Clock,
			obs.U("server", uint64(serverID)),
			obs.U("batch", uint64(len(reqs))),
			obs.U("trampoline", tTramp-t0),
			obs.U("vmfunc", tSwitch-tTramp),
			obs.U("server_cycles", tServer-tSwitch),
			obs.U("return", cpu.Clock-tServer))
	}
	if o := sb.Calls; o != nil {
		// One record per request, all sharing the batch's [t0, end) span.
		// Exact partition per request i:
		//   crossing  = (d0-t0) + (end-dEnd)   shared staging + turnaround
		//   ring_wait = hs[i]-d0               convoy behind earlier handlers
		//   service   = he[i]-hs[i]
		//   reap_delay= dEnd-he[i]             done, batch still dispatching
		end, dEnd := cpu.Clock, tServer
		rec := &sb.rec
		for i := range reqs {
			*rec = obs.CallRecord{
				Flow: fid, Kind: obs.CallBatch, Seq: sb.BatchCalls,
				Server: serverID, Start: t0, End: end,
			}
			rec.Phases[obs.PhaseCrossing] = (d0 - t0) + (end - dEnd)
			rec.Phases[obs.PhaseRingWait] = hs[i] - d0
			rec.Phases[obs.PhaseService] = he[i] - hs[i]
			rec.Phases[obs.PhaseReapDelay] = dEnd - he[i]
			o.Observe(rec)
		}
	}
	return resps, nil
}
