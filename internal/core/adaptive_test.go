package core

import (
	"fmt"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

// Test statuses for the placed echo handler (small values, distinct
// from the ring's ^uint64 reject codes).
const (
	stPlacedOK   = 1
	stWrongEpoch = 2
)

// placedWorld builds nFE sibling frontends in one server process, a
// Director over nShards, and a per-slot handler that executes only
// under the ownership check: completions echo the op ID in Regs[3] and
// carry (status, slot, epoch) in Regs[0..2]. exec records every
// execution; serviceCost burns cycles per op (with a Sleep to open
// steal windows when sleepCost > 0).
type placedExec struct {
	op    uint64
	shard int
	slot  int
	epoch uint64
}

func placedWorld(t *testing.T, eng *sim.Engine, k *mk.Kernel, sb *SkyBridge, nFE, nShards int, cfg DirectorConfig,
	serviceCost, sleepCost uint64) (*mk.Process, []*Frontend, *Director, *[]placedExec) {
	t.Helper()
	server := k.NewProcess("placed")
	var d *Director
	execs := &[]placedExec{}
	fes := make([]*Frontend, nFE)
	handlerFor := func(slot int) TenantHandler {
		return func(env *mk.Env, tenant int, req Request) Response {
			shard := int(req.Regs[1])
			ok, ep := d.Owns(slot, shard)
			if !ok {
				d.NoteReject()
				return Response{Regs: [4]uint64{stWrongEpoch, uint64(slot), ep, req.Regs[0]}}
			}
			if serviceCost > 0 {
				env.Compute(serviceCost)
			}
			if sleepCost > 0 {
				env.Sleep(sleepCost)
			}
			*execs = append(*execs, placedExec{op: req.Regs[0], shard: shard, slot: slot, epoch: d.epoch})
			d.NoteOp(shard)
			return Response{Regs: [4]uint64{stPlacedOK, uint64(slot), d.epoch, req.Regs[0]}}
		}
	}
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		for i := 0; i < nFE; i++ {
			i := i
			id, err := sb.RegisterServer(env, 16, 0x400100, func(env *mk.Env, req Request) Response {
				return Response{Regs: [4]uint64{RingStatusBadTenant}}
			})
			if err != nil {
				t.Errorf("register server %d: %v", i, err)
				return
			}
			fe, err := sb.NewFrontend(id, FrontendConfig{Quantum: 1}, handlerFor(i))
			if err != nil {
				t.Errorf("new frontend %d: %v", i, err)
				return
			}
			fes[i] = fe
		}
		cfg.Shards = nShards
		var err error
		d, err = sb.NewDirector(env, cfg, fes)
		if err != nil {
			t.Errorf("new director: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return server, fes, d, execs
}

// routedClient drives ops through the Director's routing region from a
// raw core-level client: one ring per frontend, owner byte re-read
// (charged) before every submit, wrong-epoch completions resubmitted.
type routedClient struct {
	rings   []*AsyncRing
	routeVA hw.VA
	pending []int // in-flight count per slot
	done    map[uint64]int
	retries int
}

func openRoutedClient(t *testing.T, eng *sim.Engine, k *mk.Kernel, name string, fes []*Frontend, d *Director, core *hw.CPU) (*mk.Process, *routedClient) {
	t.Helper()
	proc := k.NewProcess(name)
	rc := &routedClient{rings: make([]*AsyncRing, len(fes)), pending: make([]int, len(fes)), done: map[uint64]int{}}
	proc.Spawn("open", core, func(env *mk.Env) {
		for i, fe := range fes {
			if _, err := fe.sb.RegisterClient(env, fe.sink.srv.ID); err != nil {
				t.Errorf("%s register fe%d: %v", name, i, err)
				return
			}
			r, _, err := fe.OpenTenantRing(env, 8, 0)
			if err != nil {
				t.Errorf("%s open fe%d: %v", name, i, err)
				return
			}
			rc.rings[i] = r
		}
		rc.routeVA = d.MapRoute(env)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return proc, rc
}

func (rc *routedClient) ownerOf(env *mk.Env, shard int) int {
	var b [1]byte
	env.Read(rc.routeVA+RouteOwnerOff+hw.VA(shard), b[:], 1)
	return int(b[0])
}

func (rc *routedClient) submit(t *testing.T, env *mk.Env, id uint64, shard int) {
	for {
		slot := rc.ownerOf(env, shard)
		err := rc.rings[slot].Submit(env, Request{Regs: [4]uint64{id, uint64(shard)}})
		if err == nil {
			rc.pending[slot]++
			if err := rc.rings[slot].Flush(env); err != nil {
				t.Errorf("flush: %v", err)
			}
			return
		}
		if err != ErrRingFull {
			t.Errorf("submit: %v", err)
			return
		}
		rc.reap(t, env, slot, 1)
	}
}

// reap collects >= minN completions from slot, resubmitting any
// wrong-epoch rejects through the refreshed routing table.
func (rc *routedClient) reap(t *testing.T, env *mk.Env, slot, minN int) {
	cs, err := rc.rings[slot].Reap(env, minN)
	if err != nil {
		t.Errorf("reap: %v", err)
		return
	}
	rc.pending[slot] -= len(cs)
	for _, c := range cs {
		id, shard := c.Regs[3], int(c.Regs[3]>>32)
		switch c.Regs[0] {
		case stPlacedOK:
			rc.done[id]++
		case stWrongEpoch:
			rc.retries++
			_ = shard
			rc.submit(t, env, id, int(id>>32))
		default:
			t.Errorf("completion status %d for op %d", c.Regs[0], id)
		}
	}
}

func (rc *routedClient) drain(t *testing.T, env *mk.Env) {
	for slot := range rc.rings {
		for rc.pending[slot] > 0 {
			rc.reap(t, env, slot, 1)
		}
	}
}

// opID packs the target shard into the high word so a reject can be
// resubmitted without side tables.
func opID(client, seq, shard int) uint64 {
	return uint64(shard)<<32 | uint64(client)<<16 | uint64(seq)
}

// TestMigrationExactlyOnce: concurrent clients issue ops across a
// forced hot-shard migration. Every op executes exactly once, every
// execution passed the ownership check, and no op observes the old
// owner after the epoch bump (all old-slot executions carry a strictly
// older epoch than every new-slot execution).
func TestMigrationExactlyOnce(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	cfg := DirectorConfig{ControlPeriod: 1 << 40} // manual moves only
	server, fes, d, execs := placedWorld(t, eng, k, sb, 2, 2, cfg, 400, 0)

	const nClients, nOps = 2, 40
	procs := make([]*mk.Process, nClients)
	rcs := make([]*routedClient, nClients)
	for i := 0; i < nClients; i++ {
		procs[i], rcs[i] = openRoutedClient(t, eng, k, fmt.Sprintf("cl%d", i), fes, d, k.Mach.Cores[0])
	}

	k.Mach.AlignClocks()
	for i := 0; i < 2; i++ {
		spawnDrain(t, fes[i], server, k.Mach.Cores[i])
	}
	remaining := nClients
	for i := 0; i < nClients; i++ {
		i := i
		procs[i].Spawn("drv", k.Mach.Cores[2+i%2], func(env *mk.Env) {
			defer func() {
				rcs[i].drain(t, env)
				remaining--
				if remaining == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			for op := 0; op < nOps; op++ {
				shard := op % 2
				rcs[i].submit(t, env, opID(i, op, shard), shard)
				// Forced migration: halfway through client 0's stream,
				// move shard 0 (owned by slot 0) to slot 1 — the flip
				// lands mid-traffic with shard-0 entries in flight.
				if i == 0 && op == nOps/2 {
					d.RequestMove(env, 0, 1)
				}
				if op%4 == 3 {
					for slot := range rcs[i].rings {
						if rcs[i].pending[slot] > 0 {
							rcs[i].reap(t, env, slot, 1)
						}
					}
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if d.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", d.Migrations)
	}
	// Exactly once: every op completed OK exactly once, and the
	// execution log holds no duplicates.
	counts := map[uint64]int{}
	for _, e := range *execs {
		counts[e.op]++
	}
	for i := 0; i < nClients; i++ {
		for op := 0; op < nOps; op++ {
			id := opID(i, op, op%2)
			if rcs[i].done[id] != 1 {
				t.Errorf("op %x completed %d times, want 1", id, rcs[i].done[id])
			}
			if counts[id] != 1 {
				t.Errorf("op %x executed %d times, want 1", id, counts[id])
			}
		}
	}
	// No op observed the old owner after the epoch bump: shard 0's
	// slot-0 executions all predate (epoch-wise) every slot-1 one.
	var maxOld, minNew uint64 = 0, ^uint64(0)
	oldN, newN := 0, 0
	for _, e := range *execs {
		if e.shard != 0 {
			continue
		}
		if e.slot == 0 {
			oldN++
			if e.epoch > maxOld {
				maxOld = e.epoch
			}
		} else {
			newN++
			if e.epoch < minNew {
				minNew = e.epoch
			}
		}
	}
	if oldN == 0 || newN == 0 {
		t.Fatalf("migration not exercised mid-traffic: %d old-owner, %d new-owner executions", oldN, newN)
	}
	if maxOld >= minNew {
		t.Errorf("old owner executed at epoch %d after bump to %d", maxOld, minNew)
	}
	if d.WrongEpoch == 0 {
		t.Error("no wrong-epoch rejects: in-flight handoff path not exercised")
	}
	rt := 0
	for _, rc := range rcs {
		rt += rc.retries
	}
	if rt == 0 {
		t.Error("no client retries recorded")
	}
}

// TestStealPreservesTenantFIFO: one loaded frontend with slow, parking
// handlers; an idle sibling steals whole-tenant quanta. Every op
// executes exactly once and each client's ops execute in submission
// order even when owner sweeps and thief drains interleave.
func TestStealPreservesTenantFIFO(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	cfg := DirectorConfig{
		ControlPeriod: 8_000,   // frequent help-wakes for the thief
		MigrateMin:    1 << 30, // stealing only, no migration
	}
	server, fes, d, execs := placedWorld(t, eng, k, sb, 2, 1, cfg, 200, 1_500)

	const nClients, nOps = 3, 24
	procs := make([]*mk.Process, nClients)
	rcs := make([]*routedClient, nClients)
	for i := 0; i < nClients; i++ {
		procs[i], rcs[i] = openRoutedClient(t, eng, k, fmt.Sprintf("cl%d", i), fes, d, k.Mach.Cores[0])
	}
	k.Mach.AlignClocks()
	for i := 0; i < 2; i++ {
		spawnDrain(t, fes[i], server, k.Mach.Cores[i])
	}
	remaining := nClients
	for i := 0; i < nClients; i++ {
		i := i
		procs[i].Spawn("drv", k.Mach.Cores[2+i%2], func(env *mk.Env) {
			defer func() {
				rcs[i].drain(t, env)
				remaining--
				if remaining == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			for op := 0; op < nOps; op++ {
				rcs[i].submit(t, env, opID(i, op, 0), 0)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if d.Steals == 0 || d.StolenOps == 0 {
		t.Fatalf("no steals happened (steals=%d stolen=%d); the race under test never ran", d.Steals, d.StolenOps)
	}
	counts := map[uint64]int{}
	lastSeq := map[int]int{}
	for _, e := range *execs {
		counts[e.op]++
		client := int(e.op>>16) & 0xffff
		seq := int(e.op & 0xffff)
		if last, ok := lastSeq[client]; ok && seq <= last {
			t.Errorf("client %d op %d executed after op %d: per-tenant FIFO broken", client, seq, last)
		}
		lastSeq[client] = seq
	}
	for i := 0; i < nClients; i++ {
		for op := 0; op < nOps; op++ {
			if counts[opID(i, op, 0)] != 1 {
				t.Errorf("client %d op %d executed %d times", i, op, counts[opID(i, op, 0)])
			}
		}
	}
}

// TestScaleDownParksAndScaleUpWakes: a think-paced trickle drives the
// mean load under the low-water mark — the cold drain hands its shard
// away, drains dry, and HLTs on its gate. A closed-loop burst then
// crosses the high-water mark and the controller IPI-wakes it. All ops
// complete exactly once across both transitions.
func TestScaleDownParksAndScaleUpWakes(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	cfg := DirectorConfig{
		ControlPeriod: 10_000,
		LowWater:      1,
		HighWater:     3,
	}
	server, fes, d, execs := placedWorld(t, eng, k, sb, 2, 2, cfg, 2_500, 0)

	proc, rc := openRoutedClient(t, eng, k, "cl0", fes, d, k.Mach.Cores[0])
	k.Mach.AlignClocks()
	for i := 0; i < 2; i++ {
		spawnDrain(t, fes[i], server, k.Mach.Cores[i])
	}
	const trickleOps, burstOps = 12, 120
	proc.Spawn("drv", k.Mach.Cores[2], func(env *mk.Env) {
		defer func() {
			rc.drain(t, env)
			for _, fe := range fes {
				fe.Close(env)
			}
		}()
		// Trickle: one op per 30k cycles, alternating shards.
		for op := 0; op < trickleOps; op++ {
			env.Sleep(30_000)
			rc.submit(t, env, opID(0, op, op%2), op%2)
			rc.drain(t, env)
		}
		// Burst: closed-loop window of 8.
		for op := 0; op < burstOps; op++ {
			rc.submit(t, env, opID(0, trickleOps+op, op%2), op%2)
			if op%8 == 7 {
				rc.drain(t, env)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if d.ScaleDowns == 0 {
		t.Error("no scale-down: trickle never parked a drain")
	}
	if d.ScaleUps == 0 {
		t.Error("no scale-up: burst never woke the parked drain")
	}
	parked := uint64(0)
	for _, g := range d.Gates() {
		parked += g.ParkedCycles
	}
	if parked == 0 {
		t.Error("no gate-parked cycles recorded")
	}
	counts := map[uint64]int{}
	for _, e := range *execs {
		counts[e.op]++
	}
	for op := 0; op < trickleOps+burstOps; op++ {
		shard := op % 2
		if op >= trickleOps {
			shard = (op - trickleOps) % 2
		}
		id := opID(0, op, shard)
		if counts[id] != 1 {
			t.Errorf("op %d executed %d times, want 1", op, counts[id])
		}
	}
}

// TestNewDirectorNeedsControlPeriod: the control period has no default;
// a director without one is refused.
func TestNewDirectorNeedsControlPeriod(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("placed")
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 4, 0x400100, func(env *mk.Env, req Request) Response { return Response{} })
		if err != nil {
			t.Errorf("register server: %v", err)
			return
		}
		fe, err := sb.NewFrontend(id, FrontendConfig{}, func(env *mk.Env, tenant int, req Request) Response { return Response{} })
		if err != nil {
			t.Errorf("new frontend: %v", err)
			return
		}
		if _, err := sb.NewDirector(env, DirectorConfig{Shards: 1}, []*Frontend{fe}); err == nil {
			t.Error("director without a control period accepted")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
