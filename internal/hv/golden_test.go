package hv_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// goldenRootkernel is the SHA-256 of TestRootkernelGolden's records and
// Chrome trace.
const goldenRootkernel = "b9150e490996d43ef73f33b4ec6bcfff846adc19a7cb59e642d7fb5fdee959cc"

// TestRootkernelGolden pins the Rootkernel's paths through SkyBridge
// crossings and its exit handler: more bound servers than the EPTP list
// holds, evicting under a pinned nested chain; a rebind of a resident
// server, with the list refreshed on the client's other core; two bound
// processes alternating on one core, including a switch that finds the
// list already installed; an unbound process switched in after bindings
// exist; a VMFUNC to an empty slot; and the trap-all and small-page-EPT
// boots. Each world records its call results and errors, then its
// per-core clocks, its VM exits by reason and the five hv counters; the
// records and the run's Chrome trace hash to one constant.
func TestRootkernelGolden(t *testing.T) {
	tr := obs.NewTracer()
	var rec bytes.Buffer
	for _, c := range []struct {
		name string
		cfg  hv.Config
		run  func(w *rkWorld)
	}{
		{"evict-pinned", hv.Config{}, goldenEvictPinned},
		{"rebind-resident", hv.Config{}, goldenRebindResident},
		{"alternate", hv.Config{}, goldenAlternate},
		{"unbound", hv.Config{}, goldenUnbound},
		{"empty-slot", hv.Config{}, goldenEmptySlot},
		{"trap-all", hv.Config{TrapAll: true}, goldenBoot},
		{"small-page-ept", hv.Config{SmallPageEPT: true}, goldenBoot},
	} {
		w := newRKWorld(t, tr, &rec, c.name, c.cfg)
		c.run(w)
		w.finish()
	}
	h := sha256.New()
	h.Write(rec.Bytes())
	if err := tr.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRootkernel {
		t.Errorf("Rootkernel charges moved: sha256 %s, want %s\nrecords:\n%s", got, goldenRootkernel, rec.String())
	}
}

// rkWorld is one traced two-core world under the Rootkernel with
// SkyBridge on top.
type rkWorld struct {
	t    *testing.T
	name string
	eng  *sim.Engine
	k    *mk.Kernel
	rk   *hv.Rootkernel
	sb   *core.SkyBridge
	rec  io.Writer
	err  error // the first thread error
}

func newRKWorld(t *testing.T, tr *obs.Tracer, rec io.Writer, name string, cfg hv.Config) *rkWorld {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Mach.AttachTrace(tr, name)
	fmt.Fprintf(rec, "%s\n", name)
	return &rkWorld{t: t, name: name, eng: eng, k: k, rk: rk, sb: core.New(k, rk), rec: rec}
}

func (w *rkWorld) logf(format string, args ...any) {
	fmt.Fprintf(w.rec, "  "+format+"\n", args...)
}

// spawn starts a thread of p on core c; the world keeps its first error.
func (w *rkWorld) spawn(p *mk.Process, c int, body func(env *mk.Env) error) {
	p.Spawn(p.Name, w.k.Mach.Cores[c], func(env *mk.Env) {
		if err := body(env); err != nil && w.err == nil {
			w.err = fmt.Errorf("%s: %w", p.Name, err)
		}
	})
}

// run runs the engine until every thread has finished.
func (w *rkWorld) run() {
	w.t.Helper()
	if err := w.eng.Run(); err != nil {
		w.t.Fatalf("%s: %v", w.name, err)
	}
	if w.err != nil {
		w.t.Fatalf("%s: %v", w.name, w.err)
	}
}

// adder is a server handler answering Regs[0] + n.
func adder(n uint64) core.Handler {
	return func(env *mk.Env, req core.Request) core.Response {
		env.Compute(20)
		return core.Response{Regs: [4]uint64{req.Regs[0] + n}}
	}
}

// server registers p as a server on core c with handler h, after binding
// p as a client of each of deps, and returns its ID.
func (w *rkWorld) server(p *mk.Process, c int, deps []int, h core.Handler) int {
	var id int
	w.spawn(p, c, func(env *mk.Env) (err error) {
		for _, d := range deps {
			if _, err := w.sb.RegisterClient(env, d); err != nil {
				return err
			}
		}
		id, err = w.sb.RegisterServer(env, 4, 0, h)
		return err
	})
	w.run()
	return id
}

// bind registers env's process as a client of each server in order.
func (w *rkWorld) bind(env *mk.Env, ids ...int) error {
	for _, id := range ids {
		if _, err := w.sb.RegisterClient(env, id); err != nil {
			return err
		}
	}
	return nil
}

// call makes one direct call and records its reply.
func (w *rkWorld) call(env *mk.Env, who string, id int, arg uint64) error {
	resp, err := w.sb.DirectCall(env, id, core.Request{Regs: [4]uint64{arg}})
	if err != nil {
		return fmt.Errorf("call %d: %w", id, err)
	}
	w.logf("%s call %d(%d) = %d", who, id, arg, resp.Regs[0])
	return nil
}

// vmfunc records the outcome of a raw VMFUNC to slot on env's core and
// switches back to slot 0 if it succeeded.
func (w *rkWorld) vmfunc(env *mk.Env, who string, slot int) {
	cpu := env.T.Core
	err := cpu.VMFunc(0, slot)
	w.logf("%s vmfunc %d: err=%v", who, slot, err)
	if err == nil {
		cpu.VMFunc(0, 0)
	}
}

// finish records the world's per-core clocks, its VM exits by reason and
// the Rootkernel's counters.
func (w *rkWorld) finish() {
	m := w.k.Mach
	fmt.Fprintf(w.rec, "  clocks")
	for _, c := range m.Cores {
		fmt.Fprintf(w.rec, " %d", c.Clock)
	}
	fmt.Fprintf(w.rec, "\n  exits")
	for r := hw.ExitCPUID; r <= hw.ExitVMFuncFail; r++ {
		fmt.Fprintf(w.rec, " %s=%d", r, m.VMExits[r])
	}
	fmt.Fprintf(w.rec, "\n  hv")
	for _, name := range []string{"hypercalls", "list_installs", "bindings", "slot_loads", "slot_evictions"} {
		fmt.Fprintf(w.rec, " %s=%d", name, m.Obs.Value("hv."+name))
	}
	fmt.Fprintln(w.rec)
}

// goldenEvictPinned binds one client to more leaf servers than its EPTP
// list holds, plus a hub whose handler calls every leaf. The client binds
// the hub before the hub binds its leaves, so the hub's dependency closure
// is the hub alone, and then binds each leaf itself in order. Each hub
// call runs a nested chain over all leaves: every leaf misses, and after
// 510 loads the hub's own slot is the least recently loaded one, which
// the pinned chain keeps.
func goldenEvictPinned(w *rkWorld) {
	leaves := make([]int, hw.EPTPListSize+8)
	for i := range leaves {
		leaves[i] = w.server(w.k.NewProcess(fmt.Sprintf("leaf%d", i)), 1, nil, adder(uint64(i)))
	}
	hub := w.k.NewProcess("hub")
	hubID := w.server(hub, 1, nil, func(env *mk.Env, req core.Request) core.Response {
		var sum uint64
		for _, id := range leaves {
			resp, err := w.sb.DirectCall(env, id, core.Request{Regs: [4]uint64{req.Regs[0]}})
			if err != nil {
				if w.err == nil {
					w.err = fmt.Errorf("hub call %d: %w", id, err)
				}
				return core.Response{}
			}
			sum += resp.Regs[0]
		}
		return core.Response{Regs: [4]uint64{sum}}
	})
	client := w.k.NewProcess("client")
	w.spawn(client, 0, func(env *mk.Env) error { return w.bind(env, hubID) })
	w.run()
	w.spawn(hub, 1, func(env *mk.Env) error { return w.bind(env, leaves...) })
	w.run()
	w.spawn(client, 0, func(env *mk.Env) error {
		if err := w.bind(env, leaves...); err != nil {
			return err
		}
		for round := uint64(0); round < 2; round++ {
			if err := w.call(env, "client", hubID, round); err != nil {
				return err
			}
		}
		return w.call(env, "client", leaves[len(leaves)-1], 1)
	})
	w.run()
}

// goldenRebindResident binds a client to two servers that share a
// dependency: the second registration binds the dependency again while it
// is resident. The client already runs on core 1, so each bind also
// refreshes its list there, and its core-1 thread then calls the second
// server without a reinstall.
func goldenRebindResident(w *rkWorld) {
	dep := w.server(w.k.NewProcess("dep"), 1, nil, adder(7))
	nested := func(env *mk.Env, req core.Request) core.Response {
		resp, err := w.sb.DirectCall(env, dep, core.Request{Regs: [4]uint64{req.Regs[0] * 2}})
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("nested call: %w", err)
		}
		return resp
	}
	mid1 := w.server(w.k.NewProcess("mid1"), 1, []int{dep}, nested)
	mid2 := w.server(w.k.NewProcess("mid2"), 1, []int{dep}, nested)
	client := w.k.NewProcess("client")
	w.spawn(client, 1, func(env *mk.Env) error {
		if err := w.bind(env, mid1); err != nil {
			return err
		}
		return w.call(env, "core1", mid1, 1)
	})
	w.run()
	w.spawn(client, 0, func(env *mk.Env) error {
		if err := w.bind(env, mid2); err != nil {
			return err
		}
		return w.call(env, "core0", mid2, 2)
	})
	w.run()
	w.spawn(client, 1, func(env *mk.Env) error {
		for arg := uint64(3); arg < 6; arg++ {
			if err := w.call(env, "core1", mid2, arg); err != nil {
				return err
			}
			if err := w.call(env, "core1", mid1, arg); err != nil {
				return err
			}
		}
		return nil
	})
	w.run()
}

// goldenAlternate runs two bound processes on one core. Once both are
// bound, core 0 installs b's list while a is current, so b's next switch
// finds its list installed; then both run together and every crossing
// switches processes.
func goldenAlternate(w *rkWorld) {
	srv := w.server(w.k.NewProcess("srv"), 1, nil, adder(100))
	a, b := w.k.NewProcess("a"), w.k.NewProcess("b")
	for _, p := range []*mk.Process{a, b} {
		p := p
		w.spawn(p, 0, func(env *mk.Env) error {
			if err := w.bind(env, srv); err != nil {
				return err
			}
			return w.call(env, p.Name, srv, 0)
		})
		w.run()
	}
	w.spawn(a, 0, func(env *mk.Env) error { return w.call(env, "a", srv, 1) })
	w.run()
	w.logf("install b: err=%v", w.rk.InstallFor(w.k.Mach.Cores[0], b))
	for i, p := range []*mk.Process{b, a} {
		i, p := uint64(i), p
		w.spawn(p, 0, func(env *mk.Env) error {
			for arg := uint64(2); arg < 6; arg++ {
				if err := w.call(env, p.Name, srv, 10*i+arg); err != nil {
					return err
				}
				env.Compute(300)
			}
			return nil
		})
	}
	w.run()
}

// goldenUnbound switches an unbound process in on the client's core once
// bindings exist: its trivial list makes the client's server slot exit.
// The client then comes back and calls again.
func goldenUnbound(w *rkWorld) {
	srv := w.server(w.k.NewProcess("srv"), 1, nil, adder(3))
	client, evil := w.k.NewProcess("client"), w.k.NewProcess("evil")
	w.spawn(client, 0, func(env *mk.Env) error {
		if err := w.bind(env, srv); err != nil {
			return err
		}
		return w.call(env, "client", srv, 1)
	})
	w.run()
	w.spawn(evil, 0, func(env *mk.Env) error {
		env.Enter()
		w.vmfunc(env, "evil", 1)
		return nil
	})
	w.run()
	w.spawn(client, 0, func(env *mk.Env) error { return w.call(env, "client", srv, 2) })
	w.run()
}

// goldenEmptySlot VMFUNCs a bound process to a slot its list leaves
// empty, between two good calls.
func goldenEmptySlot(w *rkWorld) {
	srv := w.server(w.k.NewProcess("srv"), 1, nil, adder(5))
	client := w.k.NewProcess("client")
	w.spawn(client, 0, func(env *mk.Env) error {
		if err := w.bind(env, srv); err != nil {
			return err
		}
		if err := w.call(env, "client", srv, 1); err != nil {
			return err
		}
		env.Enter()
		w.vmfunc(env, "client", 1)
		w.vmfunc(env, "client", 300)
		return w.call(env, "client", srv, 2)
	})
	w.run()
}

// goldenBoot binds and calls under a non-default boot: two clients share
// core 0 (context switches), a direct Bind reports the EPT pages it
// copied, a bind with a bad index fails, and core 0 takes an interrupt
// and a CPUID.
func goldenBoot(w *rkWorld) {
	srvP := w.k.NewProcess("srv")
	srv := w.server(srvP, 1, nil, adder(9))
	a, b := w.k.NewProcess("a"), w.k.NewProcess("b")
	for i, p := range []*mk.Process{a, b} {
		i, p := uint64(i), p
		w.spawn(p, 0, func(env *mk.Env) error {
			if err := w.bind(env, srv); err != nil {
				return err
			}
			for arg := uint64(0); arg < 3; arg++ {
				if err := w.call(env, p.Name, srv, 10*i+arg); err != nil {
					return err
				}
			}
			return nil
		})
	}
	w.run()
	w.spawn(a, 0, func(env *mk.Env) error {
		pages, err := w.rk.Bind(env.T.Core, b, srvP, srv)
		w.logf("bind b: pages=%d err=%v", pages, err)
		_, err = w.rk.Bind(env.T.Core, a, srvP, 0)
		w.logf("bind index 0: err=%v", err)
		w.logf("interrupt: err=%v", env.T.Core.Interrupt())
		w.logf("cpuid: err=%v", env.T.Core.CPUID())
		return w.call(env, "a", srv, 7)
	})
	w.run()
}
