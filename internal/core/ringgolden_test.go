package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// goldenRingPath is the SHA-256 of TestRingPathGolden's records and
// Chrome trace.
const goldenRingPath = "3f5b5e59e3188949f8be78be3b12d198a9f2a23f08035fbae2c068eb19edbd59"

// TestRingPathGolden pins the ring-stack paths no BENCH file reaches: a
// RingServer draining several rings, one of them with a forged tail; a
// frontend rejecting a bad entry and a forged tenant and retiring a
// stale bit beyond its issued rings; a maliciously cleared bit repaired
// by the pre-park rescan and by the periodic full rescan; a forced
// migration with wrong-epoch rejects in flight; steal-only placement;
// scale-down and scale-up; and Close while a scaled-down drain is parked
// on its gate. Each world records every call record, then its per-core
// clocks and its ring, frontend, director and kernel counters; the
// records and the run's Chrome trace hash to one constant.
func TestRingPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight ring worlds")
	}
	tr := obs.NewTracer()
	var rec bytes.Buffer
	for _, c := range []struct {
		name string
		run  func(t *testing.T, g *goldenWorld)
	}{
		{"ringserver", goldenRingServer},
		{"frontend-rejects", goldenFrontendRejects},
		{"bitclear-prepark", goldenBitClearPrePark},
		{"bitclear-fullsweep", goldenBitClearFullSweep},
		{"migrate", goldenMigrate},
		{"steal-only", goldenStealOnly},
		{"scale", goldenScale},
		{"close-parked", goldenCloseParked},
	} {
		g := newGoldenWorld(t, tr, &rec, c.name)
		c.run(t, g)
		g.finish()
	}
	h := sha256.New()
	h.Write(rec.Bytes())
	if err := tr.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRingPath {
		t.Errorf("ring path charges moved: sha256 %s, want %s\nrecords:\n%s", got, goldenRingPath, rec.String())
	}
}

// goldenWorld is one traced four-core world whose call records go to the
// golden record stream as they are published.
type goldenWorld struct {
	name string
	eng  *sim.Engine
	k    *mk.Kernel
	sb   *SkyBridge
	rec  io.Writer
}

func newGoldenWorld(t *testing.T, tr *obs.Tracer, rec io.Writer, name string) *goldenWorld {
	eng, k, _, sb := newWorld(t)
	k.Mach.AttachTrace(tr, name)
	sb.Calls = &obs.CallObserver{Tap: func(r *obs.CallRecord) {
		fmt.Fprintf(rec, "  call flow=%x kind=%d seq=%d srv=%d [%d,%d) wake=%d phases=%v\n",
			r.Flow, r.Kind, r.Seq, r.Server, r.Start, r.End, r.Wake, r.Phases)
	}}
	fmt.Fprintf(rec, "%s\n", name)
	return &goldenWorld{name: name, eng: eng, k: k, sb: sb, rec: rec}
}

// finish records the world's per-core clocks and its facility-wide,
// kernel and machine counters.
func (g *goldenWorld) finish() {
	fmt.Fprintf(g.rec, "  clocks")
	for _, c := range g.k.Mach.Cores {
		fmt.Fprintf(g.rec, " %d", c.Clock)
	}
	sb, k := g.sb, g.k
	fmt.Fprintf(g.rec, "\n  sb direct=%d batch=%d ringops=%d doorbells=%d skipped=%d\n",
		sb.DirectCalls, sb.BatchCalls, sb.RingOps, sb.RingDoorbells, sb.RingDoorbellsSkipped)
	fmt.Fprintf(g.rec, "  mk spin=%d parks=%d local=%d ipi=%d spincyc=%d ipis=%d\n",
		k.SpinWakes, k.Parks, k.LocalWakes, k.IPIWakes, k.SpinCycles, k.Mach.IPICount)
}

func (g *goldenWorld) run(t *testing.T) {
	t.Helper()
	if err := g.eng.Run(); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
}

func (g *goldenWorld) ring(i int, r *AsyncRing) {
	fmt.Fprintf(g.rec, "  ring%d sub=%d reaped=%d doorbells=%d skipped=%d cursors=%d/%d/%d\n",
		i, r.Submitted, r.Reaped, r.Doorbells, r.DoorbellsSkipped, r.subSeq, r.srvSeq, r.reapSeq)
}

func (g *goldenWorld) frontend(i int, fe *Frontend) {
	fmt.Fprintf(g.rec, "  fe%d served=%d bad=%d sweeps=%d full=%d polls=%d visited=%d skipped=%d poll=%d service=%d idle=%d\n",
		i, fe.sink.Served, fe.sink.Bad, fe.Sweeps, fe.FullSweeps, fe.TailPolls, fe.TenantsVisited,
		fe.TenantsSkipped, fe.PollCycles, fe.ServiceCycles, fe.IdleParkedCycles)
	for t, r := range fe.rings {
		g.ring(100*i+t, r)
	}
}

func (g *goldenWorld) director(d *Director, fes []*Frontend) {
	fmt.Fprintf(g.rec, "  dir epoch=%d migrations=%d bytes=%d steals=%d stolen=%d downs=%d ups=%d ticks=%d help=%d wrong=%d parked=",
		d.epoch, d.Migrations, d.MigratedBytes, d.Steals, d.StolenOps, d.ScaleDowns, d.ScaleUps,
		d.ControlTicks, d.HelpWakes, d.WrongEpoch)
	for _, gt := range d.gates {
		fmt.Fprintf(g.rec, "%d,", gt.ParkedCycles)
	}
	fmt.Fprintln(g.rec)
	for i, fe := range fes {
		g.frontend(i, fe)
	}
}

// completions records a reap's results.
func (g *goldenWorld) completions(who string, cs []Completion, err error) {
	fmt.Fprintf(g.rec, "  %s reap err=%v", who, err)
	for _, c := range cs {
		fmt.Fprintf(g.rec, " [%d %x %q]", c.Seq, c.Regs, c.Data)
	}
	fmt.Fprintln(g.rec)
}

// hostileWrite stores a 64-bit word the way an untrusting peer would:
// one plain charged write into shared memory.
func hostileWrite(env *mk.Env, va hw.VA, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	env.Write(va, b[:], 8)
}

// echoOps submits n payload-carrying echo requests, flushing each and
// reaping whenever the ring fills, then reaps the rest.
func (g *goldenWorld) echoOps(t *testing.T, env *mk.Env, who string, r *AsyncRing, base, n int) {
	for i := 0; i < n; i++ {
		if r.Inflight() == r.QD {
			cs, err := r.Reap(env, 1)
			g.completions(who, cs, err)
		}
		payload := []byte(fmt.Sprintf("%s-op-%02d", who, base+i))
		env.Write(r.SlotVA(), payload, len(payload))
		if err := r.Submit(env, Request{Regs: [4]uint64{uint64(base + i)}, Buf: r.SlotVA(), Len: len(payload)}); err != nil {
			t.Errorf("%s submit: %v", who, err)
			return
		}
		if err := r.Flush(env); err != nil {
			t.Errorf("%s flush: %v", who, err)
			return
		}
	}
	for r.Inflight() > 0 {
		cs, err := r.Reap(env, r.Inflight())
		g.completions(who, cs, err)
		if err != nil {
			return
		}
	}
}

// rewriteEntry submits one request, then overwrites its published entry
// with a hostile one, flushes and reaps the verdict.
func (g *goldenWorld) rewriteEntry(t *testing.T, env *mk.Env, who string, r *AsyncRing, plen int, seq, tenant uint32) {
	if err := r.Submit(env, Request{Regs: [4]uint64{7}}); err != nil {
		t.Errorf("%s submit: %v", who, err)
		return
	}
	idx := int((r.subSeq - 1) % uint32(r.QD))
	env.Write(r.conn.ClientBuf+hw.VA(r.sqeBase+idx*entryLen), entryBytes([4]uint64{7}, plen, seq, tenant), entryLen)
	if err := r.Flush(env); err != nil {
		t.Errorf("%s flush: %v", who, err)
		return
	}
	cs, err := r.Reap(env, 1)
	g.completions(who, cs, err)
}

// goldenRingServer: one poll loop over three client rings. One client
// runs echo traffic, one rewrites an entry past its slot, and one
// publishes a tail five entries beyond anything it submitted, doorbells,
// and finds its completion ring corrupt.
func goldenRingServer(t *testing.T, g *goldenWorld) {
	k, sb := g.k, g.sb
	server := k.NewProcess("server")
	id := registerEcho(t, g.eng, k, sb, server, k.Mach.Cores[0])
	rs, err := sb.NewRingServer(id, mk.WakePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	rings := make([]*AsyncRing, 3)
	procs := make([]*mk.Process, 3)
	for i := range procs {
		procs[i] = k.NewProcess(fmt.Sprintf("client%d", i))
		procs[i].Spawn("open", k.Mach.Cores[0], func(env *mk.Env) {
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client %d: %v", i, err)
				return
			}
			r, err := sb.OpenRing(env, id, 4, 64, mk.WakePolicy{})
			if err != nil {
				t.Errorf("open ring %d: %v", i, err)
			}
			rings[i] = r
		})
	}
	g.run(t)
	k.Mach.AlignClocks()
	server.Spawn("poll", k.Mach.Cores[1], func(env *mk.Env) {
		if err := rs.Serve(env); err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	remaining := len(procs)
	done := func(env *mk.Env) {
		if remaining--; remaining == 0 {
			rs.Close(env)
		}
	}
	procs[0].Spawn("echo", k.Mach.Cores[0], func(env *mk.Env) {
		defer done(env)
		g.echoOps(t, env, "c0", rings[0], 0, 14)
	})
	procs[1].Spawn("bad", k.Mach.Cores[2], func(env *mk.Env) {
		defer done(env)
		r := rings[1]
		g.rewriteEntry(t, env, "c1", r, r.SlotLen+1, 0, 0)
		g.echoOps(t, env, "c1", r, 1, 3)
	})
	procs[2].Spawn("forge", k.Mach.Cores[3], func(env *mk.Env) {
		defer done(env)
		r := rings[2]
		hostileWrite(env, r.conn.ClientBuf+ctlSQTail, 5)
		if err := r.Doorbell(env); err != nil {
			t.Errorf("forged doorbell: %v", err)
			return
		}
		env.Sleep(60_000)
		cs, err := r.Reap(env, 0)
		g.completions("c2", cs, err)
	})
	g.run(t)
	fmt.Fprintf(g.rec, "  rs served=%d bad=%d calls=%d rejected=%d\n",
		rs.Served, rs.Bad, rs.srv.Calls, rs.srv.Rejected)
	for i, r := range rings {
		g.ring(i, r)
	}
}

// goldenFrontendRejects: four tenants on one drain — echo traffic, an
// entry rewritten with a negative length, an entry claiming another
// tenant, and a tenant that sets a directory bit beyond every issued
// ring, which the sweep must retire.
func goldenFrontendRejects(t *testing.T, g *goldenWorld) {
	k := g.k
	server := k.NewProcess("server")
	fe := startFrontend(t, g.eng, k, g.sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, g.eng, k, fe, 4, 0, 64, k.Mach.Cores[0])
	k.Mach.AlignClocks()
	spawnDrain(t, fe, server, k.Mach.Cores[1])
	remaining := len(procs)
	done := func(env *mk.Env) {
		if remaining--; remaining == 0 {
			fe.Close(env)
		}
	}
	procs[0].Spawn("echo", k.Mach.Cores[0], func(env *mk.Env) {
		defer done(env)
		g.echoOps(t, env, "t0", rings[0], 0, 12)
	})
	procs[1].Spawn("bad", k.Mach.Cores[2], func(env *mk.Env) {
		defer done(env)
		g.rewriteEntry(t, env, "t1", rings[1], -1, 0, 1)
		g.echoOps(t, env, "t1", rings[1], 1, 2)
	})
	procs[2].Spawn("forge", k.Mach.Cores[3], func(env *mk.Env) {
		defer done(env)
		g.rewriteEntry(t, env, "t2", rings[2], 0, 0, 0)
		g.echoOps(t, env, "t2", rings[2], 1, 2)
	})
	procs[3].Spawn("stale", k.Mach.Cores[2], func(env *mk.Env) {
		defer done(env)
		r := rings[3]
		env.Sleep(5_000)
		var b [8]byte
		env.Read(r.dirVA+dirOffBitmap, b[:], 8)
		hostileWrite(env, r.dirVA+dirOffBitmap, binary.LittleEndian.Uint64(b[:])|1<<50)
		g.echoOps(t, env, "t3", r, 0, 3)
		env.Read(r.dirVA+dirOffBitmap, b[:], 8)
		fmt.Fprintf(g.rec, "  t3 bitmap after=%x\n", b)
	})
	g.run(t)
	g.frontend(0, fe)
}

// goldenBitClearPrePark: the victim's bit is cleared before the drain
// starts, so its first sweep sees an empty bitmap and only the pre-park
// tail rescan finds (and repairs) the victim's work.
func goldenBitClearPrePark(t *testing.T, g *goldenWorld) {
	k := g.k
	server := k.NewProcess("server")
	fe := startFrontend(t, g.eng, k, g.sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, g.eng, k, fe, 2, 0, 64, k.Mach.Cores[0])
	procs[0].Spawn("victim-submit", k.Mach.Cores[2], func(env *mk.Env) {
		if err := rings[0].Submit(env, Request{Regs: [4]uint64{41}}); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		if err := rings[0].Flush(env); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	g.run(t)
	procs[1].Spawn("atk", k.Mach.Cores[3], func(env *mk.Env) {
		hostileWrite(env, rings[1].dirVA+dirOffBitmap, 0)
	})
	g.run(t)
	spawnDrain(t, fe, server, k.Mach.Cores[1])
	procs[0].Spawn("victim-reap", k.Mach.Cores[2], func(env *mk.Env) {
		defer fe.Close(env)
		cs, err := rings[0].Reap(env, 1)
		g.completions("victim", cs, err)
	})
	g.run(t)
	g.frontend(0, fe)
}

// goldenBitClearFullSweep: the victim's bit is cleared while a busy
// tenant has work staged, so the drain starts busy, never arms, and the
// periodic full rescan is what repairs the victim's bit.
func goldenBitClearFullSweep(t *testing.T, g *goldenWorld) {
	k := g.k
	server := k.NewProcess("server")
	fe := startFrontend(t, g.eng, k, g.sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, g.eng, k, fe, 3, 0, 64, k.Mach.Cores[0])
	busy := rings[0]
	submit := func(env *mk.Env, r *AsyncRing, op int) bool {
		if err := r.Submit(env, Request{Regs: [4]uint64{uint64(op)}}); err != nil {
			t.Errorf("submit: %v", err)
			return false
		}
		if err := r.Flush(env); err != nil {
			t.Errorf("flush: %v", err)
			return false
		}
		return true
	}
	procs[0].Spawn("busy-stage", k.Mach.Cores[0], func(env *mk.Env) {
		for op := 0; op < busy.QD; op++ {
			if !submit(env, busy, op) {
				return
			}
		}
	})
	procs[1].Spawn("victim-submit", k.Mach.Cores[2], func(env *mk.Env) {
		submit(env, rings[1], 41)
	})
	g.run(t)
	procs[2].Spawn("atk", k.Mach.Cores[3], func(env *mk.Env) {
		hostileWrite(env, rings[2].dirVA+dirOffBitmap, 1) // only the busy tenant's bit
	})
	g.run(t)
	k.Mach.AlignClocks()
	spawnDrain(t, fe, server, k.Mach.Cores[1])
	var victimFull uint64
	victimDone := false
	remaining := 2
	done := func(env *mk.Env) {
		if remaining--; remaining == 0 {
			fe.Close(env)
		}
	}
	procs[0].Spawn("busy", k.Mach.Cores[0], func(env *mk.Env) {
		defer done(env)
		for op := busy.QD; op < 400 && !victimDone; op++ {
			if busy.Inflight() == busy.QD {
				if _, err := busy.Reap(env, 1); err != nil {
					t.Errorf("busy reap: %v", err)
					return
				}
			}
			if !submit(env, busy, op) {
				return
			}
		}
		cs, err := busy.Reap(env, busy.Inflight())
		fmt.Fprintf(g.rec, "  busy tail=%d err=%v\n", len(cs), err)
	})
	procs[1].Spawn("victim-reap", k.Mach.Cores[2], func(env *mk.Env) {
		defer done(env)
		cs, err := rings[1].Reap(env, 1)
		victimFull, victimDone = fe.FullSweeps, true
		g.completions("victim", cs, err)
	})
	g.run(t)
	if victimFull == 0 {
		t.Errorf("%s: victim served before any full rescan", g.name)
	}
	g.frontend(0, fe)
}

// goldenMigrate: two clients through a forced migration of shard 0 with
// quantum-1 drains, so wrong-epoch rejects are in flight at the flip.
func goldenMigrate(t *testing.T, g *goldenWorld) {
	k := g.k
	server, fes, d, _ := placedWorld(t, g.eng, k, g.sb, 2, 2, DirectorConfig{ControlPeriod: 1 << 40}, 400, 0)
	rcs := make([]*routedClient, 2)
	procs := make([]*mk.Process, 2)
	for i := range rcs {
		procs[i], rcs[i] = openRoutedClient(t, g.eng, k, fmt.Sprintf("cl%d", i), fes, d, k.Mach.Cores[0])
	}
	k.Mach.AlignClocks()
	for i, fe := range fes {
		spawnDrain(t, fe, server, k.Mach.Cores[i])
	}
	remaining := len(rcs)
	for i := range rcs {
		procs[i].Spawn("drv", k.Mach.Cores[2+i], func(env *mk.Env) {
			defer func() {
				rcs[i].drain(t, env)
				if remaining--; remaining == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			for op := 0; op < 24; op++ {
				rcs[i].submit(t, env, opID(i, op, op%2), op%2)
				if i == 0 && op == 12 {
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
	g.run(t)
	if d.Migrations != 1 || d.WrongEpoch == 0 {
		t.Errorf("%s: migrations %d, wrong-epoch rejects %d", g.name, d.Migrations, d.WrongEpoch)
	}
	g.director(d, fes)
}

// goldenStealOnly: one shard on drain 0, slow parking handlers, and a
// migration threshold no load reaches, so the idle sibling only steals.
func goldenStealOnly(t *testing.T, g *goldenWorld) {
	k := g.k
	cfg := DirectorConfig{ControlPeriod: 8_000, MigrateMin: 1 << 30}
	server, fes, d, _ := placedWorld(t, g.eng, k, g.sb, 2, 1, cfg, 200, 1_500)
	rcs := make([]*routedClient, 3)
	procs := make([]*mk.Process, 3)
	for i := range rcs {
		procs[i], rcs[i] = openRoutedClient(t, g.eng, k, fmt.Sprintf("cl%d", i), fes, d, k.Mach.Cores[0])
	}
	k.Mach.AlignClocks()
	for i, fe := range fes {
		spawnDrain(t, fe, server, k.Mach.Cores[i])
	}
	remaining := len(rcs)
	for i := range rcs {
		procs[i].Spawn("drv", k.Mach.Cores[2+i%2], func(env *mk.Env) {
			defer func() {
				rcs[i].drain(t, env)
				if remaining--; remaining == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			for op := 0; op < 16; op++ {
				rcs[i].submit(t, env, opID(i, op, 0), 0)
			}
		})
	}
	g.run(t)
	if d.Steals == 0 || d.Migrations != 0 {
		t.Errorf("%s: steals %d, migrations %d", g.name, d.Steals, d.Migrations)
	}
	g.director(d, fes)
}

// scaleWorld runs a think-paced trickle that scales a drain down, then
// (burst > 0) a closed-loop burst that scales it back up, and closes the
// frontends once the client has drained.
func scaleWorld(t *testing.T, g *goldenWorld, cfg DirectorConfig, trickle, burst int) *Director {
	k := g.k
	server, fes, d, _ := placedWorld(t, g.eng, k, g.sb, 2, 2, cfg, 2_500, 0)
	proc, rc := openRoutedClient(t, g.eng, k, "cl0", fes, d, k.Mach.Cores[0])
	k.Mach.AlignClocks()
	for i, fe := range fes {
		spawnDrain(t, fe, server, k.Mach.Cores[i])
	}
	proc.Spawn("drv", k.Mach.Cores[2], func(env *mk.Env) {
		defer func() {
			rc.drain(t, env)
			for _, fe := range fes {
				fe.Close(env)
			}
		}()
		for op := 0; op < trickle; op++ {
			env.Sleep(30_000)
			rc.submit(t, env, opID(0, op, op%2), op%2)
			rc.drain(t, env)
		}
		for op := 0; op < burst; op++ {
			rc.submit(t, env, opID(0, trickle+op, op%2), op%2)
			if op%8 == 7 {
				rc.drain(t, env)
			}
		}
	})
	g.run(t)
	g.director(d, fes)
	return d
}

// goldenScale: a trickle parks the cold drain, a burst wakes it.
func goldenScale(t *testing.T, g *goldenWorld) {
	d := scaleWorld(t, g, DirectorConfig{ControlPeriod: 10_000, LowWater: 1, HighWater: 3}, 12, 96)
	if d.ScaleDowns == 0 || d.ScaleUps == 0 {
		t.Errorf("%s: scale-downs %d, scale-ups %d", g.name, d.ScaleDowns, d.ScaleUps)
	}
}

// goldenCloseParked: scale-up is off, so the drain a trickle parks is
// still on its gate when the frontends close, and Close must wake it.
func goldenCloseParked(t *testing.T, g *goldenWorld) {
	d := scaleWorld(t, g, DirectorConfig{ControlPeriod: 10_000, LowWater: 1}, 10, 0)
	if d.ScaleDowns == 0 || d.ScaleUps != 0 {
		t.Errorf("%s: scale-downs %d, scale-ups %d", g.name, d.ScaleDowns, d.ScaleUps)
	}
}
