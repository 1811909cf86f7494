package bench

import (
	"fmt"
	"sort"
	"strings"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/svc"
)

// --- Table 2: latency of instructions and operations ---

// Table2Row is one measured operation.
type Table2Row struct {
	Name   string
	Cycles uint64
	// Paper is the value the paper reports on its Skylake testbed.
	Paper uint64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 measures the primitive operations through the hardware model,
// recording one Record and one per-round latency histogram per row.
func (s *Session) Table2() *Table2Result {
	res := &Table2Result{}

	addRow := func(name string, cycles, paper uint64) {
		res.Rows = append(res.Rows, Table2Row{Name: name, Cycles: cycles, Paper: paper})
		s.record(Record{
			Experiment:  "table2",
			Config:      map[string]string{"op": name},
			CyclesPerOp: float64(cycles),
			Values:      map[string]float64{"paper_cycles": float64(paper)},
			Latency:     s.latencyOf("table2/" + name),
		})
	}

	measure := func(name string, paper uint64, kpti bool, op func(cpu *hw.CPU, k *mk.Kernel)) {
		w := s.world("table2/"+name, WorldConfig{Flavor: mk.SeL4, KPTI: kpti})
		h := s.hist("table2/" + name)
		var cycles uint64
		w.K.NewProcess("m").Spawn("m", w.K.Mach.Cores[0], func(env *mk.Env) {
			cycles = timeRounds(env, 1, 1000, h, func() { op(env.T.Core, w.K) })
		})
		w.mustRun()
		addRow(name, cycles, paper)
	}

	measure("write to CR3", 186, false, func(cpu *hw.CPU, _ *mk.Kernel) {
		cpu.Mode = hw.ModeKernel
		cpu.WriteCR3(cpu.CR3, cpu.PCID)
	})
	nullSyscall := func(cpu *hw.CPU, k *mk.Kernel) {
		cpu.Syscall()
		cpu.Swapgs()
		if k.Cfg.KPTI {
			cpu.WriteCR3(cpu.CR3, cpu.PCID)
		}
		cpu.Tick(20) // dispatch + return setup
		if k.Cfg.KPTI {
			cpu.WriteCR3(cpu.CR3, cpu.PCID)
		}
		cpu.Swapgs()
		cpu.Sysret()
	}
	measure("no-op system call w/ KPTI", 431, true, nullSyscall)
	measure("no-op system call w/o KPTI", 181, false, nullSyscall)

	// VMFUNC requires the virtualized world. Each round is one VMFUNC,
	// alternating into the server's EPT view (list index id) and back to
	// the client's own (index 0).
	{
		w := s.world("table2/VMFUNC", WorldConfig{Flavor: mk.SeL4, SkyBridge: true})
		h := s.hist("table2/VMFUNC")
		var cycles uint64
		skyPair(w, nullServer, func(env *mk.Env, id int, _ svc.Conn) {
			view := 0
			cycles = timeRounds(env, 2, 2000, h, func() {
				view = id - view
				env.T.Core.VMFunc(0, view)
			})
		})
		addRow("VMFUNC", cycles, 134)
	}

	// Full direct server call (the paper's 396-cycle SkyBridge round trip);
	// not a Table 2 row in the paper, but the natural companion measurement
	// and the one a trace of this experiment shows as skybridge.call spans.
	{
		cycles, _ := s.measureSkyBridge(mk.SeL4, "table2/direct server call")
		addRow("direct server call", cycles, 396)
	}
	return res
}

// Render formats the table.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: latency of instructions and operations (cycles)\n")
	fmt.Fprintf(&b, "%-32s %10s %10s\n", "Instruction or Operation", "measured", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-32s %10d %10d\n", row.Name, row.Cycles, row.Paper)
	}
	return b.String()
}

// --- Figure 7: IPC round-trip breakdowns ---

// Figure7Row is one bar of Figure 7.
type Figure7Row struct {
	Name       string
	Total      uint64
	Components map[string]float64
	// Paper is the round-trip the paper reports.
	Paper uint64
}

// Figure7Result reproduces Figure 7.
type Figure7Result struct {
	Rows []Figure7Row
}

// timeRounds runs warm untimed rounds of op, then rounds timed ones,
// observing each timed round into h (nil discards), and returns the mean
// cycles per timed round. Every microbenchmark and ablation that times a
// warm loop times it here.
func timeRounds(env *mk.Env, warm, rounds int, h *obs.Histogram, op func()) uint64 {
	for i := 0; i < warm; i++ {
		op()
	}
	start := env.Now()
	for i := 0; i < rounds; i++ {
		t := env.Now()
		op()
		h.Observe(env.Now() - t)
	}
	return (env.Now() - start) / uint64(rounds)
}

// skyPair runs a SkyBridge client and server on w. Process "server"
// builds its handler inside its registration thread, so the handler's
// buffers are allocated before the registration's, and registers it with
// 4 connections on core 0. Process "client" then binds on core 0 and runs
// body with the server's ID and the connection; buffers body allocates
// come after the bind's. Physical frames pick cache sets, so this order
// is part of every measurement made on the pair. A failed registration
// or bind panics, as MustWorld does.
func skyPair(w *World, handler func(env *mk.Env) svc.Handler, body func(env *mk.Env, id int, conn svc.Conn)) {
	server := w.K.NewProcess("server")
	client := w.K.NewProcess("client")
	var id int
	server.Spawn("reg", w.K.Mach.Cores[0], func(env *mk.Env) {
		var err error
		if id, err = svc.RegisterSkyBridgeServer(w.SB, env, 4, handler(env)); err != nil {
			panic(err)
		}
	})
	w.mustRun()
	client.Spawn("cli", w.K.Mach.Cores[0], func(env *mk.Env) {
		conn, err := svc.NewSkyBridge(w.SB, env, id)
		if err != nil {
			panic(err)
		}
		body(env, id, conn)
	})
	w.mustRun()
}

// nullServer builds a handler that answers every request with an empty
// reply.
func nullServer(*mk.Env) svc.Handler {
	return func(*mk.Env, svc.Req) svc.Resp { return svc.Resp{} }
}

// ipcPair runs a kernel-IPC client and server on w. Process "server"
// serves endpoint "echo" on srvCore from a bufPages-page receive buffer,
// echoing each request's first register and payload; process "client"
// runs body on core 0 and then closes the endpoint. The server's buffer
// is allocated before either thread starts.
func ipcPair(w *World, srvCore *hw.CPU, bufPages int, body func(env *mk.Env, ep *mk.Endpoint)) {
	client := w.K.NewProcess("client")
	server := w.K.NewProcess("server")
	ep := w.K.NewEndpoint("echo")
	client.Grant(ep)
	srvBuf := server.Alloc(bufPages * hw.PageSize)
	server.Spawn("srv", srvCore, func(env *mk.Env) {
		w.K.Serve(env, ep, srvBuf, func(_ *mk.Env, req mk.Msg) mk.Msg {
			return mk.Msg{Regs: [4]uint64{req.Regs[0]}, Buf: srvBuf, Len: req.Len}
		})
	})
	client.Spawn("cli", w.K.Mach.Cores[0], func(env *mk.Env) {
		body(env, ep)
		ep.Close()
	})
	w.mustRun()
}

// measureEchoIPC runs a warm same- or cross-core empty-message echo and
// returns (cycles per round trip, per-round component breakdown). Each
// round trip is observed into the session histogram named label.
func (s *Session) measureEchoIPC(flavor mk.Flavor, sameCore bool, label string) (uint64, map[string]float64) {
	w := s.world(label, WorldConfig{Flavor: flavor})
	h := s.hist(label)
	srvCore := w.K.Mach.Cores[0]
	if !sameCore {
		srvCore = w.K.Mach.Cores[1]
	}
	const warm, rounds = 64, 256
	var cycles uint64
	ipcPair(w, srvCore, 1, func(env *mk.Env, ep *mk.Endpoint) {
		// The kernel's breakdown covers the timed rounds only: it is
		// installed as the first of them starts.
		round := 0
		cycles = timeRounds(env, warm, rounds, h, func() {
			if round++; round == warm+1 {
				w.K.BD = mk.NewBreakdown()
			}
			env.Call(ep, mk.Msg{}, 0)
		})
	})
	w.K.BD.Rounds = rounds
	return cycles, w.K.BD.PerRound()
}

// measureSkyBridge runs the warm direct-call microbenchmark, observing each
// round trip into the session histogram named label.
func (s *Session) measureSkyBridge(flavor mk.Flavor, label string) (uint64, map[string]float64) {
	w := s.world(label, WorldConfig{Flavor: flavor, SkyBridge: true})
	h := s.hist(label)
	const warm, rounds = 64, 256
	var cycles, vmfuncs uint64
	skyPair(w, nullServer, func(env *mk.Env, _ int, conn svc.Conn) {
		cpu := env.T.Core
		startVM := cpu.Counters.VMFuncs
		cycles = timeRounds(env, warm, rounds, h, func() { conn.Invoke(env, svc.Req{}) })
		// Every round trip, warm or timed, takes the same VMFUNCs.
		vmfuncs = (cpu.Counters.VMFuncs - startVM) / (warm + rounds)
	})
	vm := float64(vmfuncs) * float64(hw.CostVMFUNC)
	return cycles, map[string]float64{
		mk.CatVMFUNC: vm,
		mk.CatOther:  float64(cycles) - vm,
	}
}

// Figure7 regenerates the IPC breakdown chart, recording one Record and one
// per-round-trip latency histogram per configuration.
func (s *Session) Figure7() *Figure7Result {
	res := &Figure7Result{}
	add := func(name string, total uint64, comps map[string]float64, paper uint64) {
		res.Rows = append(res.Rows, Figure7Row{Name: name, Total: total, Components: comps, Paper: paper})
		vals := map[string]float64{"paper_cycles": float64(paper)}
		for k, v := range comps {
			vals["component/"+k] = v
		}
		s.record(Record{
			Experiment:  "fig7",
			Config:      map[string]string{"configuration": name},
			CyclesPerOp: float64(total),
			Values:      vals,
			Latency:     s.latencyOf("fig7/" + name),
		})
	}
	for _, fl := range []mk.Flavor{mk.SeL4, mk.Fiasco, mk.Zircon} {
		name := fl.String() + "-SkyBridge"
		c, comps := s.measureSkyBridge(fl, "fig7/"+name)
		add(name, c, comps, 396)
	}
	papers := map[string][2]uint64{
		"seL4":      {986, 6764},
		"Fiasco.OC": {2717, 8440},
		"Zircon":    {8157, 20099},
	}
	for _, fl := range []mk.Flavor{mk.SeL4, mk.Fiasco, mk.Zircon} {
		name := fl.String() + " single-core"
		c, comps := s.measureEchoIPC(fl, true, "fig7/"+name)
		add(name, c, comps, papers[fl.String()][0])
		name = fl.String() + " cross-core"
		c, comps = s.measureEchoIPC(fl, false, "fig7/"+name)
		add(name, c, comps, papers[fl.String()][1])
	}
	return res
}

// Render formats the figure as a table of stacked components.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: synchronous IPC round-trip breakdown (cycles)\n")
	fmt.Fprintf(&b, "%-24s %9s %9s   components\n", "configuration", "measured", "paper")
	for _, row := range r.Rows {
		var keys []string
		for k := range row.Components {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			if row.Components[k] >= 0.5 {
				parts = append(parts, fmt.Sprintf("%s=%.0f", k, row.Components[k]))
			}
		}
		fmt.Fprintf(&b, "%-24s %9d %9d   %s\n", row.Name, row.Total, row.Paper, strings.Join(parts, " "))
	}
	return b.String()
}
