package core

import (
	"fmt"
	"math/bits"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// Multi-tenant frontend: one server core draining the per-tenant SPSC
// rings of N mutually-distrusting tenants through a ring-of-rings
// directory. The per-pair AsyncRing (asyncring.go) is the paper's
// two-party shape; a serving frontend needs one poll thread to multiplex
// hundreds or thousands of clients without paying an O(N) tail scan per
// sweep, and without letting one hot tenant starve the rest.
//
// The directory is a small shared region mapped into the server and every
// tenant:
//
//	0    epoch          (u64, server-stamped once per drain sweep)
//	64   serverSleeping (u64, server arms before parking)
//	128  active-tenant bitmap (u64 words; bit t = tenant t has work)
//
// A tenant's Flush sets its own bit (one read-modify-write of its word)
// and reads the single serverSleeping flag: if the drain loop declared
// itself asleep, Flush takes the one doorbell crossing — key-checked
// through the tenant's own connection, exactly like a plain ring — and
// kicks the frontend's parker; otherwise the shared-memory writes alone
// make the work visible and nothing crosses. The drain loop's spin probe
// reads only the bitmap words — O(N/64), not O(N) — and visits exactly
// the set bits.
//
// The bitmap is a performance hint, never a correctness gate: a tenant
// could set a stale bit (the sweep finds an empty ring and clears it) or
// clear bits it does not own (its directory mapping is writable). Two
// mechanisms bound the damage of a malicious clear: before parking, the
// arm sequence re-scans every ring's submission tail directly (the
// Dekker re-check, O(N) but paid only on the sleep edge), and every
// fullSweepEvery busy sweeps the loop rescans all tails and repairs the
// bits. A cleared bit therefore delays a tenant by at most a bounded
// number of sweeps, and never loses its work.
//
// Fairness: admission is credit-based (a tenant's ring depth is its
// in-flight credit), and the drain is deficit round robin — each sweep a
// visited tenant's deficit grows by the quantum and it may dispatch at
// most its deficit, so a zipfian-hot tenant at full credit cannot starve
// cold tenants (their p99 stays within a constant factor of the uniform
// case; see TestFrontendDRRFairness).
//
// Isolation parity with the rest of SkyBridge: every tenant has its own
// calling key (checked on every doorbell crossing), its own EPTP
// registration, its own ring over its own shared buffer, and every
// submission entry carries the tenant's ID — the drain rejects entries
// whose tag differs from the server-side binding (RingStatusBadTenant)
// and never touches another tenant's slots.

// Directory offsets (bytes). Epoch and sleep flag get a cache line each
// so tenant bit traffic does not false-share with the sleep flag; bitmap
// words pack behind them.
const (
	dirOffEpoch  = 0 * hw.LineSize
	dirOffSleep  = 1 * hw.LineSize
	dirOffBitmap = 2 * hw.LineSize
)

// FrontendConfig parameterizes a Frontend. The zero value means
// defaults.
type FrontendConfig struct {
	// Pol is the drain loop's (and the tenants' reap) wake policy.
	Pol mk.WakePolicy
	// Quantum is the deficit-round-robin refill per sweep visit: how many
	// requests a tenant's deficit grows by each time the sweep reaches
	// its set bit (default TenantQuantum).
	Quantum int
}

const (
	// TenantCredit is a tenant's in-flight credit: the deepest ring
	// OpenTenantRing opens, and the depth it uses when the caller passes
	// qd 0.
	TenantCredit = 8
	// TenantQuantum is the default deficit-round-robin quantum.
	TenantQuantum = 4
	// fullSweepEvery is how many busy sweeps pass between full tail
	// rescans repairing the bitmap.
	fullSweepEvery = 64
)

// TenantHandler is a frontend's request handler: like Handler, plus the
// ring-authenticated tenant ID the request arrived on. The tenant is
// server-side state bound at ring-open time — a client cannot forge it.
type TenantHandler func(env *mk.Env, tenant int, req Request) Response

// Frontend is the multiplexing drain attached to one registered server.
type Frontend struct {
	sb   *SkyBridge
	sink ringSink
	cfg  FrontendConfig

	handler TenantHandler

	rings   []*AsyncRing // tenant ID -> ring, in open order
	deficit []int        // DRR deficit per tenant

	dirFrames []hw.GPA
	dirSrv    hw.VA // server-side mapping of the directory
	nWords    int

	epoch           uint64
	sweepsSinceFull int
	closed          bool

	// dir and slot bind this frontend into an adaptive-placement
	// Director (adaptive.go); nil means standalone.
	dir  *Director
	slot int

	// Stats.
	Sweeps           uint64 // drain sweeps (one epoch stamp each)
	FullSweeps       uint64 // sweeps that rescanned every tail
	TailPolls        uint64 // individual ring-tail reads by full rescans
	TenantsVisited   uint64 // set bits drained across all sweeps
	TenantsSkipped   uint64 // idle tenants skipped by the bitmap
	PollCycles       uint64 // sweep cycles outside ring drain + dispatch
	ServiceCycles    uint64 // sweep cycles inside ring drain + dispatch
	IdleParkedCycles uint64 // cycles HLTed in the idle AdaptiveWait path
}

// NewFrontend attaches a multi-tenant drain to a registered server. The
// directory is sized for the server's MaxConns tenants. Tenants then
// open rings with OpenTenantRing, and the server process runs fe.Serve
// on a dedicated thread.
func (sb *SkyBridge) NewFrontend(serverID int, cfg FrontendConfig, h TenantHandler) (*Frontend, error) {
	srv, ok := sb.servers[serverID]
	if !ok {
		return nil, ErrNoSuchServer
	}
	if sb.frontends[serverID] != nil {
		return nil, fmt.Errorf("core: server %d already has a frontend", serverID)
	}
	if h == nil {
		return nil, fmt.Errorf("core: frontend for server %d needs a tenant handler", serverID)
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = TenantQuantum
	}
	words := max(1, (srv.MaxConns+63)/64)
	dirBytes := dirOffBitmap + 8*words
	pages := (dirBytes + hw.PageSize - 1) / hw.PageSize
	frames := make([]hw.GPA, pages)
	for i := range frames {
		frames[i] = hw.GPA(sb.K.Mach.Mem.MustAllocFrame())
	}
	fe := &Frontend{
		sb:        sb,
		sink:      ringSink{srv: srv},
		cfg:       cfg,
		handler:   h,
		dirFrames: frames,
		dirSrv:    srv.Proc.MapFrames(frames, hw.PTEUser|hw.PTEWrite),
		nWords:    words,
	}
	sb.frontends[serverID] = fe
	return fe, nil
}

// OpenTenantRing opens the calling client's per-tenant ring: depth qd (0
// means TenantCredit), payload slots of at least payloadCap
// bytes, tagged with the next tenant ID and wired into the directory.
// The client must have registered to the frontend's server first
// (RegisterClient issued its calling key and EPTP binding). Returns the
// ring and the assigned tenant ID.
func (fe *Frontend) OpenTenantRing(env *mk.Env, qd, payloadCap int) (*AsyncRing, int, error) {
	sb, srv := fe.sb, fe.sink.srv
	conn, ok := sb.bindings[env.P][srv.ID]
	if !ok {
		return nil, 0, ErrNotRegistered
	}
	tenant := len(fe.rings)
	if tenant >= fe.nWords*64 {
		return nil, 0, fmt.Errorf("core: frontend directory full (%d tenants)", tenant)
	}
	if qd == 0 {
		qd = TenantCredit
	}
	if qd > TenantCredit {
		return nil, 0, fmt.Errorf("core: ring depth %d exceeds tenant credit %d", qd, TenantCredit)
	}
	r, err := sb.newRing(conn, &fe.sink, srv.ID, qd, payloadCap, fe.cfg.Pol)
	if err != nil {
		return nil, 0, err
	}
	r.tagged = true
	r.tenant = uint32(tenant)
	r.handler = func(env *mk.Env, req Request) Response {
		return fe.handler(env, tenant, req)
	}
	// Map the directory into the tenant (writable: it sets its own bit;
	// the bitmap is a hint, so this grants no authority — see the package
	// comment on malicious clears).
	r.dirVA = env.P.MapFrames(fe.dirFrames, hw.PTEUser|hw.PTEWrite)
	for _, off := range []int{ctlSQTail, ctlCQTail, ctlNeedDoorbell, ctlClientWait} {
		writeU64(env, conn.ClientBuf, off, 0)
	}
	fe.rings = append(fe.rings, r)
	fe.deficit = append(fe.deficit, 0)
	return r, tenant, nil
}

// setBit sets (on) or clears tenant t's directory bit through the
// mapping at base: one charged read of its word, and a charged write only
// when the bit changes. Tenants set their own bits; the drain repairs and
// retires them. Neither side checkpoints inside, so the read and the
// write never interleave with another update.
func setBit(env *mk.Env, base hw.VA, t int, on bool) {
	off := dirOffBitmap + 8*(t/64)
	m := uint64(1) << (t % 64)
	if w := readU64(env, base, off); (w&m != 0) != on {
		writeU64(env, base, off, w^m)
	}
}

// anyBit is the bitmap probe: charged reads of the directory words up to
// the first one with a bit set.
func (fe *Frontend) anyBit(env *mk.Env) bool {
	for w := 0; w < fe.nWords; w++ {
		if readU64(env, fe.dirSrv, dirOffBitmap+8*w) != 0 {
			return true
		}
	}
	return false
}

// rescan reads every ring's submission tail directly, in tenant order,
// and sets the bit of each tenant with undrained work. It reports
// whether it found any, and stops at the first when first is set.
func (fe *Frontend) rescan(env *mk.Env, first bool) bool {
	found := false
	for t, r := range fe.rings {
		if uint32(readU64(env, r.conn.ServerBuf, ctlSQTail)) != r.srvSeq {
			setBit(env, fe.dirSrv, t, true)
			found = true
			if first {
				break
			}
		}
	}
	return found
}

// backlog counts submissions published to the frontend's rings and not
// yet drained (host view).
func (fe *Frontend) backlog() int {
	n := 0
	for _, r := range fe.rings {
		n += int(r.subSeq - r.srvSeq)
	}
	return n
}

// visit is one tenant's deficit-round-robin turn, taken by the owner's
// sweep or by a stealing sibling (adaptive.go): the deficit grows by the
// quantum, the ring is claimed and drained of at most the deficit, and
// the deficit keeps what was left unused. A ring drained empty resets
// the deficit and clears the tenant's bit. visit returns the entries
// served and the cycles of the drain alone, without the bit update.
func (fe *Frontend) visit(env *mk.Env, t int) (int, uint64, error) {
	r, cpu := fe.rings[t], env.T.Core
	fe.deficit[t] += fe.cfg.Quantum
	s0 := cpu.Clock
	r.claimed = true
	n, more, err := r.drain(env, fe.deficit[t])
	r.claimed = false
	cycles := cpu.Clock - s0
	if err != nil {
		return n, cycles, err
	}
	fe.deficit[t] -= n
	if !more {
		fe.deficit[t] = 0
		setBit(env, fe.dirSrv, t, false)
	}
	return n, cycles, nil
}

// sweep is one epoch of the drain: stamp the epoch word, optionally
// rescan every tail to repair the bitmap, then visit exactly the set
// bits in tenant-ID order. A tenant drained empty has its bit cleared;
// one left with pending work keeps its bit and earns another quantum
// next sweep.
func (fe *Frontend) sweep(env *mk.Env) (int, error) {
	cpu := env.T.Core
	t0 := cpu.Clock
	fe.Sweeps++
	fe.epoch++
	writeU64(env, fe.dirSrv, dirOffEpoch, fe.epoch)

	fe.sweepsSinceFull++
	if fe.sweepsSinceFull >= fullSweepEvery {
		fe.sweepsSinceFull = 0
		fe.FullSweeps++
		fe.TailPolls += uint64(len(fe.rings))
		fe.rescan(env, false)
	}

	served, visited := 0, 0
	var service uint64
	for w := 0; w < fe.nWords; w++ {
		word := readU64(env, fe.dirSrv, dirOffBitmap+8*w)
		for bitsLeft := word; bitsLeft != 0; {
			tz := bits.TrailingZeros64(bitsLeft)
			bitsLeft &^= 1 << tz
			t := w*64 + tz
			if t >= len(fe.rings) {
				// A bit beyond any issued ring: only a malicious or
				// buggy tenant sets one; retire it.
				setBit(env, fe.dirSrv, t, false)
				continue
			}
			if fe.rings[t].claimed {
				// A stealing sibling is mid-drain (adaptive.go); the
				// bit stays set and the next sweep revisits.
				continue
			}
			visited++
			n, cycles, err := fe.visit(env, t)
			service += cycles
			if err != nil {
				return served, err
			}
			served += n
		}
	}
	fe.TenantsVisited += uint64(visited)
	fe.TenantsSkipped += uint64(len(fe.rings) - visited)
	fe.ServiceCycles += service
	fe.PollCycles += (cpu.Clock - t0) - service
	return served, nil
}

// Serve is the frontend's drain loop: sweep while work arrives, and when
// a sweep comes back empty wait adaptively — spin probing only the
// bitmap words (O(words)), then publish the serverSleeping flag, re-scan
// every ring's tail directly (the Dekker re-check that makes malicious
// bit clears harmless on the sleep edge), and park until a tenant's
// doorbell (or Close) kicks the thread. Runs on a dedicated thread of
// the server process; returns nil after Close once every ring is
// drained, or the first dispatch error.
func (fe *Frontend) Serve(env *mk.Env) error {
	if env.P != fe.sink.srv.Proc {
		return fmt.Errorf("core: frontend for %s serving from process %s",
			fe.sink.srv.Proc.Name, env.P.Name)
	}
	for {
		env.T.Checkpoint()
		n, err := fe.sweep(env)
		if err != nil {
			return err
		}
		if fe.dir != nil {
			m, err := fe.dir.tick(env, fe)
			if err != nil {
				return err
			}
			n += m
		}
		if n > 0 {
			continue
		}
		if fe.closed {
			_, err := fe.drainAll(env)
			return err
		}
		if fe.dir != nil {
			m, err := fe.dir.steal(env, fe)
			if err != nil {
				return err
			}
			if m > 0 {
				continue
			}
		}
		armed := false
		env.AdaptiveWait(&fe.sink.parker, fe.cfg.Pol, func() bool {
			if fe.closed {
				return true
			}
			if !armed {
				// Spin probe: bitmap words only (plus sibling bitmaps
				// when stealing is on).
				return fe.anyBit(env) || (fe.dir != nil && fe.dir.stealable(env, fe))
			}
			// Post-arm re-check: every tail, directly. A tenant whose bit
			// was cleared out from under it is found here — repair the bit
			// so the next sweep drains it instead of spinning back here.
			return fe.rescan(env, true)
		}, func() {
			armed = true
			writeU64(env, fe.dirSrv, dirOffSleep, 1)
		}, func() {
			armed = false
			writeU64(env, fe.dirSrv, dirOffSleep, 0)
		})
		fe.IdleParkedCycles += fe.sink.parker.Last.Parked
	}
}

// drainAll empties every unclaimed ring, ignoring the bitmap, until a
// pass serves nothing: the final drain after Close (a shutdown must not
// trust a hint) and a scaled-down drain's last pass before it parks
// (adaptive.go). It returns the entries served.
func (fe *Frontend) drainAll(env *mk.Env) (int, error) {
	served := 0
	for {
		n := 0
		for _, r := range fe.rings {
			if r.claimed {
				continue
			}
			r.claimed = true
			m, _, err := r.drain(env, r.QD)
			r.claimed = false
			if err != nil {
				return served, err
			}
			n += m
		}
		served += n
		if n == 0 {
			return served, nil
		}
	}
}

// Close marks the drain loop for shutdown and kicks it awake (shutdown
// bookkeeping: no IPI is modeled). The loop drains any remaining
// submissions before returning. Callers stop submitting first.
func (fe *Frontend) Close(env *mk.Env) {
	fe.closed = true
	if fe.dir != nil {
		fe.dir.gates[fe.slot].Close(env)
	}
	env.K.CloseParker(env.T.Core, &fe.sink.parker)
}
