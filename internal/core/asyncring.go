package core

import (
	"errors"
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// Asynchronous submission/completion rings: an io_uring-style IPC mode
// over the existing per-pair shared buffer. The client enqueues up to QD
// requests into a single-producer/single-consumer submission ring without
// trampolining; the server's poll thread drains them on its own core and
// posts results to a completion ring the client reaps. The only crossing
// left on the path is the *doorbell* — one trampoline+VMFUNC round trip
// that hands a sleeping server the current ring tail — and the adaptive
// wakeup policy (mk.AdaptiveWait) makes even that rare: a busy server
// polls the ring through shared memory and no crossing happens at all.
//
// Security parity with the synchronous paths is preserved:
//
//   - every doorbell crossing presents the connection's calling key and
//     the server-side trampoline checks it against the calling-key table,
//     exactly like DirectCall (one check per crossing — the key
//     authenticates the connection, not the individual request);
//   - every ring entry's payload length is bounds-checked on both sides:
//     the server rejects submissions whose length or sequence tag escapes
//     their slot (RingStatusBadEntry, without dying), and the client
//     validates every completion index, sequence tag, and length against
//     its own cursors before touching payload memory, so a malicious
//     server can fail a Reap with ErrRingCorrupt but never redirect it.
//
// Ring layout inside the 4-page shared buffer (offsets in bytes):
//
//	0     sqTail       (control word, one cache line each)
//	64    cqTail
//	128   needDoorbell (server arms before sleeping)
//	192   clientWait   (client arms before sleeping)
//	256   QD submission entries (48 B each)
//	      QD completion entries (48 B each, line-aligned base)
//	      QD payload slots (SlotLen each, line-aligned, >= 256 B)
//
// Indices are free-running uint32 sequence numbers (slot = seq % QD), so
// full/empty never ambiguate and wraparound is a modulo, not a state.
const (
	// MaxQD bounds a ring's queue depth so control words + two entry
	// rings + MaxQD minimum slots always fit the smallest shared buffer.
	MaxQD = 32

	// Control-word offsets, one per cache line so the two sides' polling
	// does not false-share.
	ctlSQTail       = 0 * hw.LineSize
	ctlCQTail       = 1 * hw.LineSize
	ctlNeedDoorbell = 2 * hw.LineSize
	ctlClientWait   = 3 * hw.LineSize
	ringCtlBytes    = 4 * hw.LineSize

	// ringSlotMin mirrors batchSlotMin: every slot leaves room for a
	// reply the client cannot size in advance.
	ringSlotMin = batchSlotMin
	// costRingDispatch is the server's per-entry bookkeeping beyond the
	// charged entry reads and writes (same work as the batch path).
	costRingDispatch = costBatchDispatch
)

// RingStatusBadEntry is echoed in Regs[0] of a completion whose
// submission entry failed the server-side bounds check (length or
// sequence tag outside its slot). No handler status uses this value.
const RingStatusBadEntry = ^uint64(0)

// RingStatusBadTenant is echoed in Regs[0] of a completion whose
// submission entry carried a tenant tag different from the tenant the
// ring was issued to (a forged tenant ID — the tag is client-writable
// ring memory, but the binding checked here is server-side state set at
// ring-open time, which the client cannot touch). No handler runs and no
// other tenant's slots are read or written.
const RingStatusBadTenant = ^uint64(1)

// Async-ring errors.
var (
	ErrRingFull    = errors.New("core: submission ring full")
	ErrRingCorrupt = errors.New("core: completion ring failed client-side validation")
)

// Completion is one reaped result.
type Completion struct {
	Regs [4]uint64
	Len  int
	Seq  uint32
	// Data is the reply payload, copied out of the ring slot (nil when
	// Len == 0).
	Data []byte
}

// ringSink is the drain side a ring belongs to: the registered server
// whose handler runs, the parker its doorbell kicks, and the served/bad
// counters. Both RingServer (one flat poll loop) and Frontend (the
// multi-tenant directory drain, mpsc.go) embed one, so a ring never needs
// to know which kind of loop drains it.
type ringSink struct {
	srv    *Server
	parker mk.Parker

	// Served counts completions written; Bad counts submissions rejected
	// by the server-side bounds check (or the tenant-tag check).
	Served uint64
	Bad    uint64
}

// RingServer is the server half of the asynchronous path: one poll
// thread (Serve) draining every ring attached to one registered server.
type RingServer struct {
	ringSink
	rings  []*AsyncRing
	pol    mk.WakePolicy
	closed bool
}

// NewRingServer attaches an asynchronous poll loop to a registered
// server. Clients then open rings against it with OpenRing, and the
// server process runs rs.Serve on a dedicated thread.
func (sb *SkyBridge) NewRingServer(serverID int, pol mk.WakePolicy) (*RingServer, error) {
	srv, ok := sb.servers[serverID]
	if !ok {
		return nil, ErrNoSuchServer
	}
	if sb.ringServers[serverID] != nil {
		return nil, fmt.Errorf("core: server %d already has a ring server", serverID)
	}
	rs := &RingServer{ringSink: ringSink{srv: srv}, pol: pol}
	sb.ringServers[serverID] = rs
	return rs, nil
}

// AsyncRing is the client handle of one submission/completion ring pair,
// laid out in the client's existing connection buffer to serverID.
type AsyncRing struct {
	sb       *SkyBridge
	conn     *Connection
	sink     *ringSink
	serverID int

	QD      int
	SlotLen int

	sqeBase int
	cqeBase int
	payBase int

	// Tenant binding (frontend rings only): tagged rings carry the tenant
	// ID in every submission entry, and the drain rejects entries whose
	// tag differs from the server-side binding (RingStatusBadTenant).
	tagged bool
	tenant uint32
	// handler, when non-nil, overrides the server's registered handler
	// for this ring (the frontend binds the authenticated tenant here).
	handler Handler

	// dirVA (frontend rings only) is the client's view of the frontend's
	// ring-of-rings directory page. Flush sets the tenant's active bit and
	// reads the server-sleeping flag instead of the per-ring needDoorbell
	// word (mpsc.go).
	dirVA hw.VA

	// Client cursors (free-running): subSeq counts submissions, reapSeq
	// reaped completions, lastCQ the last validated cqTail observation.
	subSeq  uint32
	reapSeq uint32
	lastCQ  uint32

	// srvSeq is the server poll loop's drain cursor.
	srvSeq uint32

	// claimed marks a drain (owner sweep, stealing sibling, final or
	// pre-park drain) currently inside drain on this ring.
	// Host-side state flipped with no intervening checkpoint, so it is
	// atomic in simulated time; it guarantees one drainer per ring at a
	// time, which is what keeps per-tenant FIFO order across steals.
	claimed bool

	pol       mk.WakePolicy
	cliParker mk.Parker
	// wait is a blocking Reap's wait: the reaper's environment, the
	// quorum, and the availability (or the error) the last ready probe
	// read, with the closures over them that initWait builds once.
	wait struct {
		env         *mk.Env
		min         int
		avail       uint32
		err         error
		ready       func() bool
		arm, disarm func()
	}

	// callObs, when non-nil, overrides sb.Calls as this ring's
	// attribution sink (SetObserver) — the tenants sweep splits hot and
	// cold tenant classes into separate breakdowns this way.
	callObs *obs.CallObserver

	depth     *obs.Histogram
	occupancy obs.Gauge

	// ringID seeds this ring's deterministic flow IDs (creation order).
	ringID uint32

	// Host-side per-slot attribution stamps, indexed seq % QD and valid
	// for a sequence from its Submit until it is reaped (Submit of seq
	// s+QD cannot happen before s is reaped, so slots never alias live
	// sequences). Allocated — and written — only when a CallObserver is
	// attached; tracing alone uses none of them.
	subT   []uint64 // Submit entry time
	pubT   []uint64 // tail-publish time (Submit exit)
	flushT []uint64 // time the submission was made visible (Flush/doorbell)
	svcS   []uint64 // server handler start
	svcE   []uint64 // server handler end
	svcSeq []uint32 // sequence the svcS/svcE slot entry belongs to
	// flushSeq is the first sequence not yet covered by a Flush.
	flushSeq uint32

	// Client-side stats.
	Submitted        uint64
	Reaped           uint64
	Doorbells        uint64 // crossings actually taken
	DoorbellsSkipped uint64 // flushes that found the server awake
}

func alignLine(n int) int { return (n + hw.LineSize - 1) &^ (hw.LineSize - 1) }

// OpenRing lays a ring pair of depth qd with payload slots of at least
// payloadCap bytes over the calling client's connection to serverID (the
// client must have registered first, and the server must have a
// RingServer). The control words are zeroed with charged writes.
func (sb *SkyBridge) OpenRing(env *mk.Env, serverID, qd, payloadCap int, pol mk.WakePolicy) (*AsyncRing, error) {
	conn, ok := sb.bindings[env.P][serverID]
	if !ok {
		return nil, ErrNotRegistered
	}
	rs := sb.ringServers[serverID]
	if rs == nil {
		return nil, fmt.Errorf("core: server %d has no ring server", serverID)
	}
	r, err := sb.newRing(conn, &rs.ringSink, serverID, qd, payloadCap, pol)
	if err != nil {
		return nil, err
	}
	for _, off := range []int{ctlSQTail, ctlCQTail, ctlClientWait} {
		writeU64(env, conn.ClientBuf, off, 0)
	}
	// A new ring starts with its doorbell armed: the poll thread may have
	// parked before this ring existed (its arm pass could not flag it), so
	// the first Flush must take the crossing unconditionally. The server's
	// next disarm clears it.
	writeU64(env, conn.ClientBuf, ctlNeedDoorbell, 1)
	rs.rings = append(rs.rings, r)
	return r, nil
}

// newRing validates parameters, computes the ring layout over conn's
// shared buffer, and constructs the client handle bound to sink. An
// overflowing layout reports the computed bases, not just the inputs —
// sizing failures at high tenant counts are otherwise undiagnosable.
func (sb *SkyBridge) newRing(conn *Connection, sink *ringSink, serverID, qd, payloadCap int, pol mk.WakePolicy) (*AsyncRing, error) {
	if qd < 1 || qd > MaxQD {
		return nil, fmt.Errorf("core: ring depth %d (max %d)", qd, MaxQD)
	}
	if payloadCap < 0 {
		return nil, fmt.Errorf("core: negative ring payload capacity %d", payloadCap)
	}
	// Same early guard as Layout: bound the capacity before any rounding
	// arithmetic can wrap.
	if payloadCap > conn.BufLen {
		return nil, fmt.Errorf("core: ring payload capacity %d exceeds shared buffer %d",
			payloadCap, conn.BufLen)
	}
	if payloadCap < ringSlotMin {
		payloadCap = ringSlotMin
	}
	slot := alignLine(payloadCap)
	sqeBase := ringCtlBytes
	cqeBase := alignLine(sqeBase + qd*entryLen)
	payBase := alignLine(cqeBase + qd*entryLen)
	if end := payBase + qd*slot; end > conn.BufLen {
		return nil, fmt.Errorf("core: ring layout overflows shared buffer: "+
			"qd %d x %d-byte slots need %d bytes (sqes at %d, cqes at %d, payload at %d) but the buffer holds %d",
			qd, slot, end, sqeBase, cqeBase, payBase, conn.BufLen)
	}
	sb.ringSeq++
	r := &AsyncRing{
		sb: sb, conn: conn, sink: sink, serverID: serverID,
		QD: qd, SlotLen: slot,
		sqeBase: sqeBase, cqeBase: cqeBase, payBase: payBase,
		pol:    pol,
		ringID: sb.ringSeq,
	}
	if sb.Calls != nil {
		r.allocStamps()
	}
	name := fmt.Sprintf("async.%s.s%d", conn.Client.Name, serverID)
	r.depth = sb.K.Mach.Obs.Histogram(name + ".depth")
	r.occupancy = sb.K.Mach.Obs.Gauge(name + ".occupancy")
	return r, nil
}

// allocStamps lazily allocates the host-side per-slot attribution stamps.
func (r *AsyncRing) allocStamps() {
	if r.subT != nil {
		return
	}
	qd := r.QD
	r.subT = make([]uint64, qd)
	r.pubT = make([]uint64, qd)
	r.flushT = make([]uint64, qd)
	r.svcS = make([]uint64, qd)
	r.svcE = make([]uint64, qd)
	r.svcSeq = make([]uint32, qd)
	for i := range r.svcSeq {
		r.svcSeq[i] = ^uint32(0) // no sequence served into this slot yet
	}
}

// SetObserver redirects this ring's phase-attribution records to o
// instead of the facility-wide sb.Calls sink (nil restores the default).
// Benches use it to split tenant classes into separate breakdowns.
func (r *AsyncRing) SetObserver(o *obs.CallObserver) {
	r.callObs = o
	if o != nil {
		r.allocStamps()
	}
}

// observer returns the ring's attribution sink: the per-ring override
// when set, else the facility-wide one.
func (r *AsyncRing) observer() *obs.CallObserver {
	if r.callObs != nil {
		return r.callObs
	}
	return r.sb.Calls
}

// readU64/writeU64 access one shared word (a ring control word, a
// directory word, the routing epoch) with a charged 8-byte memory
// operation through the given mapping. Ring cursors are uint32 values
// held zero-extended in the word's low half.
func readU64(env *mk.Env, base hw.VA, off int) uint64 {
	return env.LoadU64(base + hw.VA(off))
}

func writeU64(env *mk.Env, base hw.VA, off int, v uint64) {
	env.StoreU64(base+hw.VA(off), v)
}

// flowID returns the deterministic flow ID of submission seq on this
// ring: ring creation order in the middle bits, the free-running
// submission sequence in the low bits.
func (r *AsyncRing) flowID(seq uint32) uint64 {
	return obs.FlowAsync | uint64(r.ringID)<<32 | uint64(seq)
}

// Inflight returns submissions not yet reaped.
func (r *AsyncRing) Inflight() int { return int(r.subSeq - r.reapSeq) }

// Depth returns the ring's queue-depth histogram (one Observe per
// Submit, of the post-submit in-flight count).
func (r *AsyncRing) Depth() *obs.Histogram { return r.depth }

// SlotVA returns the client VA of the payload slot the *next* Submit
// will use; callers staging payloads in place write there and pass the
// same VA as Request.Buf to skip the copy.
func (r *AsyncRing) SlotVA() hw.VA {
	return r.conn.ClientBuf + hw.VA(r.payBase+int(r.subSeq%uint32(r.QD))*r.SlotLen)
}

// Submit enqueues one request without crossing: payload into its slot,
// entry into the submission ring, tail published. ErrRingFull when QD
// submissions are already in flight (reap first). The submission only
// becomes *guaranteed* visible to a sleeping server after Flush.
func (r *AsyncRing) Submit(env *mk.Env, req Request) error {
	if r.Inflight() >= r.QD {
		return ErrRingFull
	}
	if req.Len < 0 || req.Len > r.SlotLen {
		return fmt.Errorf("core: ring payload %d exceeds slot %d", req.Len, r.SlotLen)
	}
	cpu := env.T.Core
	t0 := cpu.Clock
	if tr := cpu.Trace; tr != nil {
		tr.FlowStart(t0, r.flowID(r.subSeq), "flow.async", "flow")
	}
	idx := int(r.subSeq % uint32(r.QD))
	slotVA := r.conn.ClientBuf + hw.VA(r.payBase+idx*r.SlotLen)
	if req.Len > 0 && req.Buf != slotVA {
		data := make([]byte, req.Len)
		env.Read(req.Buf, data, req.Len)
		env.Write(slotVA, data, req.Len)
	}
	var e [entryLen]byte
	env.Write(r.conn.ClientBuf+hw.VA(r.sqeBase+idx*entryLen),
		encodeEntry(&e, req.Regs, req.Len, r.subSeq, r.tenant), entryLen)
	r.subSeq++
	writeU64(env, r.conn.ClientBuf, ctlSQTail, uint64(r.subSeq))
	r.Submitted++
	if r.subT != nil {
		// Until a Flush covers it, the publish time doubles as the
		// visibility time (an awake server sees the tail write itself).
		r.subT[idx] = t0
		r.pubT[idx] = cpu.Clock
		r.flushT[idx] = cpu.Clock
	}
	d := uint64(r.Inflight())
	r.depth.Observe(d)
	r.occupancy.Set(d)
	return nil
}

// Flush makes pending submissions visible to the server: if the server's
// poll loop is awake the shared-memory writes already did the job and no
// crossing happens; if it declared itself asleep, Flush performs the
// doorbell crossing. A plain ring reads its own needDoorbell flag. A
// frontend ring first sets its tenant's active bit, then reads the
// drain loop's sleep flag (mpsc.go). The sqTail write in Submit, and the
// bit write, precede the flag read (Dekker order against the server's
// arm -> re-check -> park sequence), so a sleeping server is always
// either doorbelled or about to see the work itself.
func (r *AsyncRing) Flush(env *mk.Env) error {
	flag, off := r.conn.ClientBuf, ctlNeedDoorbell
	if r.dirVA != 0 {
		setBit(env, r.dirVA, int(r.tenant), true)
		flag, off = r.dirVA, dirOffSleep
	}
	if readU64(env, flag, off) != 0 {
		return r.Doorbell(env)
	}
	r.DoorbellsSkipped++
	r.sb.RingDoorbellsSkipped++
	// A plain ring's tail write made these visible, so their publish
	// stamp stands as the visibility time; a frontend ring's become
	// visible to the drain with the bit, so the flush stamps its time.
	r.flushed(env.T.Core.Clock, r.dirVA != 0)
	return nil
}

// flushed marks every pending submission visible: it advances flushSeq
// and, when stamp is set, records now as their visibility time.
func (r *AsyncRing) flushed(now uint64, stamp bool) {
	if stamp && r.flushT != nil {
		for s := r.flushSeq; s != r.subSeq; s++ {
			r.flushT[s%uint32(r.QD)] = now
		}
	}
	r.flushSeq = r.subSeq
}

// Doorbell is the one remaining crossing of the asynchronous path: a
// trampoline+VMFUNC round trip into the server's EPT view that presents
// the calling key, reads the submission tail from the server side of the
// buffer, and kicks the parked poll thread (IPI if cross-core). The
// crossing itself is a full DirectCall round trip minus the handler.
// Flush takes it only when the server sleeps; calling it directly forces
// the crossing regardless.
func (r *AsyncRing) Doorbell(env *mk.Env) error {
	x := crossing{sb: r.sb, conn: r.conn}
	if err := x.enter(env, "skybridge.doorbell", "", 0, nil); err != nil {
		return err
	}
	// Tag the rest of the crossing (nothing in enter reads the tag) with
	// the oldest submission this doorbell makes visible, so the EPTP work
	// and the IPI join that call's flow chain.
	cpu := x.cpu
	if r.flushSeq != r.subSeq {
		x.fid = r.flowID(r.flushSeq)
		cpu.FlowID = x.fid
		defer func() { cpu.FlowID = 0 }()
	}
	if err := x.switchIn(); err != nil {
		return err
	}
	// Hand over the ring tail (read back through the server's view) and
	// kick the parked poll thread awake.
	_ = readU64(x.senv, r.conn.ServerBuf, ctlSQTail)
	r.sb.K.WakeParker(cpu, &r.sink.parker)
	if err := x.leave(); err != nil {
		return err
	}
	r.Doorbells++
	r.sb.RingDoorbells++
	r.flushed(cpu.Clock, true)
	x.tr.End(x.span, cpu.Clock, obs.U("server", uint64(r.serverID)))
	return nil
}

// availCompletions reads the completion tail and validates it against the
// client's cursors: a tail that regresses behind an earlier observation,
// or runs ahead of what was actually submitted, means the server
// fabricated completions (completion-before-submission) and the ring is
// declared corrupt.
func (r *AsyncRing) availCompletions(env *mk.Env) (uint32, error) {
	tail := uint32(readU64(env, r.conn.ClientBuf, ctlCQTail))
	if int32(tail-r.lastCQ) < 0 {
		return 0, fmt.Errorf("%w: completion tail moved backwards (%d after %d)",
			ErrRingCorrupt, tail, r.lastCQ)
	}
	if d := tail - r.reapSeq; d > r.subSeq-r.reapSeq {
		return 0, fmt.Errorf("%w: completion tail %d ahead of submissions (reaped %d, submitted %d)",
			ErrRingCorrupt, tail, r.reapSeq, r.subSeq)
	}
	r.lastCQ = tail
	return tail - r.reapSeq, nil
}

// Reap collects completions: it waits (adaptively — spin, then HLT with
// the clientWait flag armed) until at least minN are available, then
// reaps *everything* available. minN of 0 never blocks. Callers must
// Flush before a blocking Reap, or a sleeping server may never see the
// submissions being waited on. Every completion is validated before its
// payload is read: sequence tag must match the expected cursor and the
// length must fit the slot — a malicious server writing out-of-bounds
// completion indices or lengths yields ErrRingCorrupt, never an
// out-of-slot read.
func (r *AsyncRing) Reap(env *mk.Env, minN int) ([]Completion, error) {
	if minN > r.Inflight() {
		return nil, fmt.Errorf("core: reap of %d with only %d in flight", minN, r.Inflight())
	}
	avail, err := r.availCompletions(env)
	if err != nil {
		return nil, err
	}
	// The wait's ready closure refreshes r.wait.avail while spinning, but
	// a parked thread returns on the waker's kick *without* a final ready
	// call — so re-read the tail after every wait and loop until the
	// quorum is really there (a spurious wake just waits again).
	// totSpin/totDelivery accumulate the waits' cycle decomposition for
	// the attribution records; wake remembers how the last wait resolved.
	var totSpin, totDelivery uint64
	var wake mk.WakeKind
	for int(avail) < minN {
		w := &r.wait
		if w.ready == nil {
			r.initWait()
		}
		w.env, w.min, w.avail, w.err = env, minN, avail, nil
		env.AdaptiveWait(&r.cliParker, r.pol, w.ready, w.arm, w.disarm)
		avail, err = w.avail, w.err
		totSpin += r.cliParker.Last.Spin
		totDelivery += r.cliParker.Last.Delivery
		wake = r.cliParker.Last.Kind
		if err == nil && int(avail) < minN {
			avail, err = r.availCompletions(env)
		}
		if err != nil {
			return nil, err
		}
	}
	if avail == 0 {
		return nil, nil
	}
	out := make([]Completion, 0, avail)
	var e [entryLen]byte
	for ; r.reapSeq != r.lastCQ; r.reapSeq++ {
		idx := int(r.reapSeq % uint32(r.QD))
		env.Read(r.conn.ClientBuf+hw.VA(r.cqeBase+idx*entryLen), e[:], entryLen)
		regs, plen, seq, _ := decodeEntry(&e)
		if seq != r.reapSeq {
			return nil, fmt.Errorf("%w: completion %d carries sequence tag %d",
				ErrRingCorrupt, r.reapSeq, seq)
		}
		if plen < 0 || plen > r.SlotLen {
			return nil, fmt.Errorf("%w: completion %d length %d exceeds slot %d",
				ErrRingCorrupt, r.reapSeq, plen, r.SlotLen)
		}
		c := Completion{Regs: regs, Len: plen, Seq: r.reapSeq}
		if plen > 0 {
			c.Data = make([]byte, plen)
			env.Read(r.conn.ClientBuf+hw.VA(r.payBase+idx*r.SlotLen), c.Data, plen)
		}
		if tr := env.T.Core.Trace; tr != nil {
			tr.FlowEnd(env.T.Core.Clock, r.flowID(r.reapSeq), "flow.async", "flow")
		}
		out = append(out, c)
		r.Reaped++
	}
	r.occupancy.Set(uint64(r.Inflight()))
	if o := r.observer(); o != nil && r.subT != nil {
		r.observeReaped(env.T.Core.Clock, out, totSpin, totDelivery, wake, o)
	}
	return out, nil
}

// initWait builds the blocking Reap's wait closures over r.wait, once per
// ring.
func (r *AsyncRing) initWait() {
	w := &r.wait
	w.ready = func() bool {
		w.avail, w.err = r.availCompletions(w.env)
		return w.err != nil || int(w.avail) >= w.min
	}
	w.arm = func() { writeU64(w.env, r.conn.ClientBuf, ctlClientWait, 1) }
	w.disarm = func() { writeU64(w.env, r.conn.ClientBuf, ctlClientWait, 0) }
}

// observeReaped assembles one attribution record per completion just
// reaped. Each record partitions the call's [submit, reap-return) span
// with a clamped monotone boundary chain, so the phases sum to the
// end-to-end latency exactly even though client spinning overlaps server
// service in wall time:
//
//	b0 submit entry    -> crossing   -> b1 visibility (publish/doorbell)
//	b1                 -> ring_wait  -> b2 handler start (clamped)
//	b2                 -> service    -> b3 handler end (clamped)
//	b3                 -> wakeup     -> b4 = b3 + delivery (clamped)
//	b4                 -> client_spin-> b5 = b4 + spin (clamped)
//	b5                 -> reap_delay -> end
//
// The wait cycles (spin, delivery) accumulated across this Reap's
// AdaptiveWaits are carved out of each record's post-service tail;
// whatever remains is the time the finished completion sat unreaped.
func (r *AsyncRing) observeReaped(end uint64, out []Completion, spin, delivery uint64, wake mk.WakeKind, o *obs.CallObserver) {
	qd := uint32(r.QD)
	rec := &r.sb.rec
	for i := range out {
		seq := out[i].Seq
		idx := seq % qd
		b0 := r.subT[idx]
		b1 := clampRange(r.flushT[idx], b0, end)
		b2, b3 := b1, b1
		if r.svcSeq[idx] == seq {
			b2 = clampRange(r.svcS[idx], b1, end)
			b3 = clampRange(r.svcE[idx], b2, end)
		}
		b4 := b3 + min(delivery, end-b3)
		b5 := b4 + min(spin, end-b4)
		*rec = obs.CallRecord{
			Flow: r.flowID(seq), Kind: obs.CallAsync, Seq: uint64(seq),
			Server: r.serverID, Start: b0, End: end, Wake: uint8(wake),
		}
		rec.Phases[obs.PhaseCrossing] = b1 - b0
		rec.Phases[obs.PhaseRingWait] = b2 - b1
		rec.Phases[obs.PhaseService] = b3 - b2
		rec.Phases[obs.PhaseWakeup] = b4 - b3
		rec.Phases[obs.PhaseClientSpin] = b5 - b4
		rec.Phases[obs.PhaseReapDelay] = end - b5
		o.Observe(rec)
	}
}

func clampRange(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Serve is the server's poll loop: drain every attached ring, and when
// all are empty wait adaptively — spin reading the submission tails, then
// arm the doorbell flags and HLT until a client's doorbell (or Close)
// kicks the thread. Runs on a dedicated thread of the server process;
// returns nil after Close once the rings are drained, or the first
// dispatch error.
func (rs *RingServer) Serve(env *mk.Env) error {
	if env.P != rs.srv.Proc {
		return fmt.Errorf("core: ring server for %s serving from process %s",
			rs.srv.Proc.Name, env.P.Name)
	}
	ready := func() bool {
		if rs.closed {
			return true
		}
		for _, r := range rs.rings {
			if uint32(readU64(env, r.conn.ServerBuf, ctlSQTail)) != r.srvSeq {
				return true
			}
		}
		return false
	}
	arm := func() { rs.arm(env, 1) }
	disarm := func() { rs.arm(env, 0) }
	for {
		env.T.Checkpoint()
		progressed := false
		for _, r := range rs.rings {
			n, _, err := r.drain(env, r.QD)
			if err != nil {
				return err
			}
			if n > 0 {
				progressed = true
			}
		}
		if progressed {
			continue
		}
		if rs.closed {
			return nil
		}
		env.AdaptiveWait(&rs.parker, rs.pol, ready, arm, disarm)
	}
}

// arm writes every ring's needDoorbell flag: 1 before the poll thread
// parks, 0 once it is awake again.
func (rs *RingServer) arm(env *mk.Env, v uint64) {
	for _, r := range rs.rings {
		writeU64(env, r.conn.ServerBuf, ctlNeedDoorbell, v)
	}
}

// Close marks the poll loop for shutdown and kicks it awake (shutdown
// bookkeeping: no IPI is modeled). The loop drains any remaining
// submissions before returning. Callers stop submitting first.
func (rs *RingServer) Close(env *mk.Env) {
	rs.closed = true
	env.K.CloseParker(env.T.Core, &rs.parker)
}

// drain dispatches up to max pending submissions of one ring:
// charged entry read, per-entry bounds validation (a client rewriting
// entries after submission must still confine its payload to its slot),
// tenant-tag validation on tagged rings, handler dispatch, completion
// write. The completion tail publishes once per drain, after which a
// parked reaper is kicked (cqTail write precedes the clientWait flag
// read — the Dekker pairing of Reap's arm sequence). It returns the
// count served and whether submissions remain past the quantum (the
// deficit-round-robin drain leaves the tenant's directory bit set then).
func (r *AsyncRing) drain(env *mk.Env, max int) (int, bool, error) {
	cpu := env.T.Core
	srv := r.sink.srv
	tail := uint32(readU64(env, r.conn.ServerBuf, ctlSQTail))
	if d := tail - r.srvSeq; d > uint32(r.QD) {
		// A malicious client advanced the tail beyond its own ring; clamp
		// to the window instead of chasing a fabricated cursor.
		tail = r.srvSeq + uint32(r.QD)
	}
	stop := tail
	if pending := int(tail - r.srvSeq); pending > max {
		stop = r.srvSeq + uint32(max)
	}
	n := 0
	tr := cpu.Trace
	var e [entryLen]byte
	for ; r.srvSeq != stop; r.srvSeq++ {
		cpu.Tick(costRingDispatch)
		if tr != nil {
			tr.FlowStep(cpu.Clock, r.flowID(r.srvSeq), "flow.drain", "flow")
		}
		idx := int(r.srvSeq % uint32(r.QD))
		env.Read(r.conn.ServerBuf+hw.VA(r.sqeBase+idx*entryLen), e[:], entryLen)
		regs, plen, seq, tenant := decodeEntry(&e)
		if r.svcSeq != nil {
			r.svcS[idx] = cpu.Clock
			r.svcSeq[idx] = r.srvSeq
		}
		var out Response
		switch {
		case seq != r.srvSeq || plen < 0 || plen > r.SlotLen:
			srv.Rejected++
			r.sink.Bad++
			out = Response{Regs: [4]uint64{RingStatusBadEntry}}
		case r.tagged && tenant != r.tenant:
			// Forged tenant ID: the entry claims an identity other than
			// the one this ring was issued to. Reject without running the
			// handler — the request never acts under the forged tenant,
			// and no other tenant's ring or slots are touched.
			srv.Rejected++
			r.sink.Bad++
			out = Response{Regs: [4]uint64{RingStatusBadTenant}}
		default:
			srv.Calls++
			h := srv.Handler
			if r.handler != nil {
				h = r.handler
			}
			out = h(env, Request{
				Regs:      regs,
				Len:       plen,
				SharedBuf: r.conn.ServerBuf + hw.VA(r.payBase+idx*r.SlotLen),
			})
			if out.Len < 0 || out.Len > r.SlotLen {
				return n, false, fmt.Errorf("core: ring reply %d length %d exceeds slot %d",
					r.srvSeq, out.Len, r.SlotLen)
			}
		}
		if r.svcSeq != nil {
			r.svcE[idx] = cpu.Clock
		}
		if tr != nil {
			tr.FlowStep(cpu.Clock, r.flowID(r.srvSeq), "flow.service", "flow")
		}
		env.Write(r.conn.ServerBuf+hw.VA(r.cqeBase+idx*entryLen),
			encodeEntry(&e, out.Regs, out.Len, r.srvSeq, r.tenant), entryLen)
		r.sink.Served++
		n++
	}
	if n > 0 {
		writeU64(env, r.conn.ServerBuf, ctlCQTail, uint64(r.srvSeq))
		// The poll loop is demonstrably awake: clear a doorbell flag left
		// over from OpenRing (or a spurious arm) so flushes go back to the
		// crossing-free path.
		if r.dirVA == 0 && readU64(env, r.conn.ServerBuf, ctlNeedDoorbell) != 0 {
			writeU64(env, r.conn.ServerBuf, ctlNeedDoorbell, 0)
		}
		r.sb.RingOps += uint64(n)
		if readU64(env, r.conn.ServerBuf, ctlClientWait) != 0 {
			writeU64(env, r.conn.ServerBuf, ctlClientWait, 0)
			env.K.WakeParker(cpu, &r.cliParker)
		}
	}
	return n, r.srvSeq != tail, nil
}
