package core

import (
	"fmt"
	"math/bits"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// Adaptive placement: a Director coordinates several sibling frontends
// (one drain thread each, all registered by one server process) serving
// a set of co-resident shards whose ownership can move at runtime.
// Three mechanisms, all deterministic functions of simulated state:
//
// Migration. Each shard has exactly one owner drain. The Director
// samples per-shard served-ops EWMAs plus instantaneous ring backlog
// once per ControlPeriod and, when the hottest drain carries at least
// twice the coldest's load, marks the hottest shard whose move improves
// the balance as pending. The OLD owner executes the handoff at its
// next loop turn — right after a sweep, so its rings hold no entry it
// is still obliged to serve for that shard — by updating the owner
// byte and bumping the epoch word in a routing region clients map
// read-only. A request already in flight to the old owner is rejected
// with a wrong-epoch status (never executed); the client re-reads the
// routing table and resubmits to the new owner. Each submission is
// served exactly once and executes only under an ownership check, so
// no op is lost or doubly executed. The NEW owner re-establishes its
// EPTP binding (Kernel.EnsureOn) and pulls the shard's table through
// its cache hierarchy via the Acquire callback.
//
// Work stealing. A drain whose own sweep comes back empty scans its
// siblings' active-tenant bitmaps (the PR-9 directory, same address
// space) in deterministic order and steals one whole-tenant quantum
// under the victim's own DRR deficit accounting. A per-ring claim flag
// — host state flipped with no intervening checkpoint, so atomic in
// simulated time — guarantees a single drainer per ring at a time;
// entries are always served in submission order, so a tenant's SPSC
// FIFO is preserved across steals.
//
// Autoscaling. When the mean load per active drain stays under
// LowWater for hystTicks control periods, the coldest drain hands its
// shards away, drains its rings dry, and parks on an mk.Gate (the
// calibrated AdaptiveWait HLT path with a minimal spin budget). When
// the mean crosses HighWater for hystTicks periods the controller
// IPI-wakes a parked drain; migration then rebalances shards onto it.
// At least one drain stays active. Gate.ParkedCycles lets experiments
// report busy-core-cycles.

const (
	// ewmaShift smooths the per-shard load average: 1/2^shift of each
	// new sample folds in per control period.
	ewmaShift = 1
	// hystTicks is how many consecutive control periods the mean must
	// sit past a watermark before the scale decision fires.
	hystTicks = 2
)

// DirectorConfig parameterizes adaptive placement.
type DirectorConfig struct {
	// Shards is the number of placement units (required).
	Shards int
	// ControlPeriod is the simulated-cycle spacing of control
	// evaluations (required).
	ControlPeriod uint64
	// MigrateMin is the minimum hottest-drain load (ops/period) before
	// migration triggers, filtering noise at idle (default 4).
	MigrateMin uint64
	// LowWater and HighWater bound the scale policy: mean ops/period
	// per active drain below LowWater parks a core, above HighWater
	// unparks one. Zero LowWater disables scale-down; zero HighWater
	// disables scale-up.
	LowWater, HighWater uint64
	// Static freezes the initial block placement: the routing region is
	// published once and no migration, stealing, or scaling happens —
	// the ablation baseline.
	Static bool
	// Acquire, if set, is called by a shard's new owner after a
	// migration to pull the shard's state through its cache hierarchy
	// (e.g. kv.Store.MigrateWarm). Returns bytes moved.
	Acquire func(env *mk.Env, shard int) int
	// Obs, if set, receives the Director's counters and per-shard load
	// gauges under the "place." prefix.
	Obs *obs.Registry
}

// Director owns shard placement across sibling frontends.
type Director struct {
	cfg DirectorConfig
	fes []*Frontend

	owner   []int  // shard -> fe slot
	epoch   uint64 // routing epoch, bumped on every flip
	pending []int  // shard -> target slot, -1 when none
	moves   int    // count of pending entries (fast tick check)
	acquire [][]int
	active  []bool
	parkReq []bool
	gates   []*mk.Gate

	routeFrames []hw.GPA
	routeSrv    hw.VA

	opsSince []uint64
	load     []obs.EWMA
	gauges   []obs.Gauge

	nextControl         uint64
	lowTicks, highTicks int

	// Stats.
	Migrations    uint64 // ownership flips executed
	MigratedBytes uint64 // bytes pulled by Acquire warm walks
	Steals        uint64 // tenant quanta stolen
	StolenOps     uint64 // entries served by thieves
	ScaleDowns    uint64 // drains parked
	ScaleUps      uint64 // drains unparked
	ControlTicks  uint64 // control evaluations
	HelpWakes     uint64 // parked siblings IPI-woken to steal
	WrongEpoch    uint64 // rejects observed via NoteReject
}

// RouteOwnerOff is the routing-region layout: epoch u64 at offset 0
// (its own cache line), one owner byte per shard from RouteOwnerOff.
// Owner bytes are written before the epoch bump, so a client that sees
// a new epoch sees the new owners (and neither side checkpoints
// mid-update, so simulated readers never observe a torn pair).
const RouteOwnerOff = hw.LineSize

// NewDirector wires adaptive placement over sibling frontends. All
// frontends must belong to the caller's (server) process; shards get
// the static block assignment owner = shard*len(fes)/Shards, published
// in a one-page routing region clients map via MapRoute.
func (sb *SkyBridge) NewDirector(env *mk.Env, cfg DirectorConfig, fes []*Frontend) (*Director, error) {
	if len(fes) == 0 {
		return nil, fmt.Errorf("core: director needs at least one frontend")
	}
	if cfg.Shards < 1 || cfg.Shards > hw.PageSize-RouteOwnerOff {
		return nil, fmt.Errorf("core: director shard count %d out of range", cfg.Shards)
	}
	if cfg.ControlPeriod == 0 {
		return nil, fmt.Errorf("core: director needs a control period")
	}
	if cfg.MigrateMin == 0 {
		cfg.MigrateMin = 4
	}
	if len(fes) > 256 {
		return nil, fmt.Errorf("core: owner bytes cap frontends at 256, got %d", len(fes))
	}
	for _, fe := range fes {
		if fe.sink.srv.Proc != env.P {
			return nil, fmt.Errorf("core: frontend for %s attached from process %s",
				fe.sink.srv.Proc.Name, env.P.Name)
		}
		if fe.dir != nil {
			return nil, fmt.Errorf("core: frontend already has a director")
		}
	}
	d := &Director{
		cfg:         cfg,
		fes:         fes,
		owner:       make([]int, cfg.Shards),
		epoch:       1,
		pending:     make([]int, cfg.Shards),
		acquire:     make([][]int, len(fes)),
		active:      make([]bool, len(fes)),
		parkReq:     make([]bool, len(fes)),
		gates:       make([]*mk.Gate, len(fes)),
		routeFrames: []hw.GPA{hw.GPA(sb.K.Mach.Mem.MustAllocFrame())},
		opsSince:    make([]uint64, cfg.Shards),
		load:        make([]obs.EWMA, cfg.Shards),
	}
	d.routeSrv = env.P.MapFrames(d.routeFrames, hw.PTEUser|hw.PTEWrite)
	for s := range d.owner {
		d.owner[s] = s * len(fes) / cfg.Shards
		d.pending[s] = -1
	}
	for i, fe := range fes {
		d.active[i] = true
		d.gates[i] = mk.NewGate()
		fe.dir = d
		fe.slot = i
	}
	for s := range d.load {
		d.load[s].Shift = ewmaShift
	}
	if cfg.Obs != nil {
		cfg.Obs.Bind("place.migrations", &d.Migrations)
		cfg.Obs.Bind("place.migrated_bytes", &d.MigratedBytes)
		cfg.Obs.Bind("place.steals", &d.Steals)
		cfg.Obs.Bind("place.stolen_ops", &d.StolenOps)
		cfg.Obs.Bind("place.scale_downs", &d.ScaleDowns)
		cfg.Obs.Bind("place.scale_ups", &d.ScaleUps)
		cfg.Obs.Bind("place.control_ticks", &d.ControlTicks)
		cfg.Obs.Bind("place.wrong_epoch", &d.WrongEpoch)
		d.gauges = make([]obs.Gauge, cfg.Shards)
		for s := range d.gauges {
			d.gauges[s] = cfg.Obs.Gauge(fmt.Sprintf("place.shard%03d.load", s))
		}
	}
	// Publish the initial table (charged writes through the server
	// mapping): owner bytes first, then the epoch.
	b := make([]byte, cfg.Shards)
	for s, o := range d.owner {
		b[s] = byte(o)
	}
	env.Write(d.routeSrv+RouteOwnerOff, b, len(b))
	writeU64(env, d.routeSrv, 0, d.epoch)
	return d, nil
}

// MapRoute maps the routing region read-only into the calling client's
// address space; the epoch-aware router reads it with charged loads.
func (d *Director) MapRoute(env *mk.Env) hw.VA {
	return env.P.MapFrames(d.routeFrames, hw.PTEUser)
}

// Shards returns the placement-unit count.
func (d *Director) Shards() int { return d.cfg.Shards }

// Gates exposes the per-drain park gates for busy-cycle accounting.
func (d *Director) Gates() []*mk.Gate { return d.gates }

// Owns is the handler-side ownership gate: true when the shard is
// bound to the given drain slot, plus the current epoch for the reject
// payload when it is not.
func (d *Director) Owns(slot, shard int) (bool, uint64) {
	return d.owner[shard] == slot, d.epoch
}

// NoteOp feeds one executed op into a shard's load accounting.
func (d *Director) NoteOp(shard int) { d.opsSince[shard]++ }

// NoteReject counts a wrong-epoch reject (client resubmitted).
func (d *Director) NoteReject() { d.WrongEpoch++ }

// RequestMove queues a forced migration (tests, manual rebalancing):
// the shard's current owner executes the handoff at its next loop
// turn.
func (d *Director) RequestMove(env *mk.Env, shard, target int) {
	if d.pending[shard] >= 0 || target == d.owner[shard] {
		return
	}
	d.pending[shard] = target
	d.moves++
	d.kick(env, d.owner[shard])
}

// kick wakes a drain that may be idle-parked so it notices pending
// control work (pays the IPI if it crosses cores; a no-op when the
// drain is awake).
func (d *Director) kick(env *mk.Env, slot int) {
	env.K.WakeParker(env.T.Core, &d.fes[slot].sink.parker)
}

func (d *Director) ownsAny(slot int) bool {
	for _, o := range d.owner {
		if o == slot {
			return true
		}
	}
	return false
}

// gatePol parks almost immediately: the decision to HLT was already
// made by the controller, so the gate spends no spin budget.
var gatePol = mk.WakePolicy{SpinBudget: 1, SpinStep: 1}

// tick runs the Director's per-loop duties for one drain: execute
// handoffs this drain owes as old owner, warm-pull shards it just
// acquired, evaluate the control policy once per period, and park if
// scaled down. Called by Frontend.Serve right after a sweep — the
// point where this drain's rings hold no entry it is still obliged to
// serve under the old placement. Returns entries served as a side
// effect (the pre-park drain).
func (d *Director) tick(env *mk.Env, fe *Frontend) (int, error) {
	if fe.closed {
		return 0, nil
	}
	slot := fe.slot
	// Handoffs: flip owner byte, bump epoch, hand the shard to the
	// target's acquire queue. From here every routing read sees the new
	// owner, and this drain's handler rejects stragglers with the
	// wrong-epoch status.
	if d.moves > 0 {
		for s := range d.pending {
			if d.pending[s] < 0 || d.owner[s] != slot {
				continue
			}
			tgt := d.pending[s]
			d.pending[s] = -1
			d.moves--
			d.owner[s] = tgt
			var b [1]byte
			b[0] = byte(tgt)
			env.Write(d.routeSrv+RouteOwnerOff+hw.VA(s), b[:], 1)
			d.epoch++
			writeU64(env, d.routeSrv, 0, d.epoch)
			d.Migrations++
			d.acquire[tgt] = append(d.acquire[tgt], s)
			d.kick(env, tgt)
		}
	}
	// Acquisitions: re-establish the EPTP binding on this core and walk
	// the shard's table through our cache hierarchy.
	if len(d.acquire[slot]) > 0 {
		env.K.EnsureOn(env.T.Core, env.P)
		for _, s := range d.acquire[slot] {
			if d.cfg.Acquire != nil {
				d.MigratedBytes += uint64(d.cfg.Acquire(env, s))
			}
		}
		d.acquire[slot] = d.acquire[slot][:0]
	}
	if !d.cfg.Static && d.active[slot] && env.Now() >= d.nextControl {
		d.evaluate(env)
	}
	if !d.parkReq[slot] || d.active[slot] || d.ownsAny(slot) {
		return 0, nil
	}
	// Scale-down: drain every ring dry (all our shards are flipped away,
	// so shard ops complete as wrong-epoch rejects and the clients
	// re-route; nothing new arrives because routing no longer names this
	// drain), then HLT on the gate until the controller scales back up.
	served, err := fe.drainAll(env)
	if err != nil {
		return served, err
	}
	d.parkReq[slot] = false
	d.ScaleDowns++
	g := d.gates[slot]
	g.Shut()
	g.Wait(env, gatePol, func() bool { return fe.closed })
	return served, nil
}

// feLoads blends each active drain's owned-shard EWMAs (1/256 op
// units) with its instantaneous ring backlog (quarter weight): the
// EWMA carries history, the backlog catches a hot set that just moved.
func (d *Director) feLoads() []uint64 {
	loads := make([]uint64, len(d.fes))
	for s, o := range d.owner {
		loads[o] += d.load[s].Scaled()
	}
	for i, fe := range d.fes {
		if d.active[i] {
			loads[i] += uint64(fe.backlog()) << 6
		}
	}
	return loads
}

// evaluate is one control period: fold the op counts into the load
// EWMAs, pick at most one migration, and run the scale policy with
// hysteresis. Runs inside whichever active drain's loop first crosses
// the period boundary — the engine's total order makes that choice,
// and everything read here, deterministic.
func (d *Director) evaluate(env *mk.Env) {
	d.nextControl = env.Now() + d.cfg.ControlPeriod
	d.ControlTicks++
	env.Compute(uint64(8*d.cfg.Shards + 16*len(d.fes))) // controller table scan
	for s := range d.load {
		d.load[s].Observe(d.opsSince[s])
		d.opsSince[s] = 0
		if d.gauges != nil {
			d.gauges[s].Set(d.load[s].Value())
		}
	}
	loads := d.feLoads()
	hi, lo, nAct, total := -1, -1, 0, uint64(0)
	var maxBacklog int
	for i := range d.fes {
		if !d.active[i] {
			continue
		}
		nAct++
		total += loads[i]
		if hi < 0 || loads[i] > loads[hi] {
			hi = i
		}
		if lo < 0 || loads[i] < loads[lo] {
			lo = i
		}
		maxBacklog = max(maxBacklog, d.fes[i].backlog())
	}
	// Help-wake: a drain sitting on real backlog should not wait for
	// sleeping siblings to stumble onto it — IPI them awake to steal.
	if maxBacklog > d.fes[0].cfg.Quantum {
		for i, fe := range d.fes {
			if d.active[i] && fe.sink.parker.Waiting() {
				d.kick(env, i)
				d.HelpWakes++
			}
		}
	}
	// Migration: hottest active drain at least 2x the coldest, and the
	// hottest shard whose move strictly improves the balance.
	if hi >= 0 && lo >= 0 && hi != lo &&
		loads[hi] >= d.cfg.MigrateMin<<8 && loads[hi] >= 2*loads[lo] {
		best, bestLoad := -1, uint64(0)
		for s, o := range d.owner {
			if o != hi || d.pending[s] >= 0 {
				continue
			}
			ls := d.load[s].Scaled()
			if ls > bestLoad && loads[lo]+ls < loads[hi] {
				best, bestLoad = s, ls
			}
		}
		if best >= 0 {
			d.pending[best] = lo
			d.moves++
			d.kick(env, hi)
		}
	}
	// Scale policy on the mean active load, with consecutive-tick
	// hysteresis.
	mean := total / uint64(nAct)
	switch {
	case d.cfg.LowWater > 0 && mean < d.cfg.LowWater<<8:
		d.lowTicks++
		d.highTicks = 0
	case d.cfg.HighWater > 0 && mean > d.cfg.HighWater<<8:
		d.highTicks++
		d.lowTicks = 0
	default:
		d.lowTicks, d.highTicks = 0, 0
	}
	if d.lowTicks >= hystTicks && nAct > 1 {
		d.lowTicks = 0
		p := lo
		d.active[p] = false
		d.parkReq[p] = true
		// Hand p's shards to the coldest remaining drains, greedily.
		for s, o := range d.owner {
			if o != p || d.pending[s] >= 0 {
				continue
			}
			tgt, tgtLoad := -1, uint64(0)
			for i := range d.fes {
				if d.active[i] && (tgt < 0 || loads[i] < tgtLoad) {
					tgt, tgtLoad = i, loads[i]
				}
			}
			loads[tgt] += d.load[s].Scaled()
			d.pending[s] = tgt
			d.moves++
		}
		d.kick(env, p)
	}
	if d.highTicks >= hystTicks {
		for p := range d.fes {
			if d.active[p] {
				continue
			}
			d.highTicks = 0
			d.active[p] = true
			d.parkReq[p] = false
			d.ScaleUps++
			d.gates[p].Unpark(env)
			d.kick(env, p)
			break
		}
	}
}

// stealable is the idle drain's spin probe: any sibling bitmap word
// set means there may be work to steal (charged reads; the bitmap is a
// hint, steal re-checks the rings).
func (d *Director) stealable(env *mk.Env, self *Frontend) bool {
	if d.cfg.Static || !d.active[self.slot] {
		return false
	}
	nf := len(d.fes)
	for k := 1; k < nf; k++ {
		if v := d.fes[(self.slot+k)%nf]; d.active[v.slot] && v.anyBit(env) {
			return true
		}
	}
	return false
}

// steal scans siblings in deterministic order (next slot first) and
// serves one whole-tenant quantum from the first unclaimed ring with a
// set bit, under the victim's own DRR deficit accounting — exactly
// what the victim's sweep would have granted, just executed on this
// core. One quantum per call keeps the thief responsive to its own
// tenants.
func (d *Director) steal(env *mk.Env, self *Frontend) (int, error) {
	if d.cfg.Static || !d.active[self.slot] {
		return 0, nil
	}
	nf := len(d.fes)
	for k := 1; k < nf; k++ {
		v := d.fes[(self.slot+k)%nf]
		if !d.active[v.slot] || v.closed {
			continue
		}
		for w := 0; w < v.nWords; w++ {
			word := readU64(env, v.dirSrv, dirOffBitmap+8*w)
			for bitsLeft := word; bitsLeft != 0; {
				tz := bits.TrailingZeros64(bitsLeft)
				bitsLeft &^= 1 << tz
				t := w*64 + tz
				if t >= len(v.rings) || v.rings[t].claimed {
					continue
				}
				n, _, err := v.visit(env, t)
				if err != nil {
					return 0, err
				}
				if n > 0 {
					d.Steals++
					d.StolenOps += uint64(n)
					return n, nil
				}
			}
		}
	}
	return 0, nil
}
