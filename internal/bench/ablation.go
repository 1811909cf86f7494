package bench

import (
	"fmt"
	"strings"

	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// AblationResult is a generic two-arm comparison.
type AblationResult struct {
	Name     string
	ArmA     string
	ArmB     string
	ValueA   float64
	ValueB   float64
	Unit     string
	Comments string
}

// Render formats the comparison.
func (r *AblationResult) Render() string {
	return fmt.Sprintf("%-34s %s=%.0f %s, %s=%.0f %s  (%s)\n",
		r.Name, r.ArmA, r.ValueA, r.Unit, r.ArmB, r.ValueB, r.Unit, r.Comments)
}

// AblationEPTClone compares the shallow (path-copying) EPT clone SkyBridge
// uses against a deep copy of the whole base EPT, in table pages touched
// per client-server binding (DESIGN.md ablation 1).
func AblationEPTClone() *AblationResult {
	mem := hw.NewPhysMem(8 << 30)
	base := hw.NewEPT(mem)
	// A base EPT with some fine-grained structure, so the deep copy has a
	// realistic amount of tables to duplicate: 256 MiB of 4 KiB mappings
	// plus hugepages above.
	if err := base.MapIdentityRange(0, 65536, hw.PageSize, hw.EPTAll); err != nil {
		panic(err)
	}
	if err := base.MapIdentityRange(hw.GPA(1<<30), 6, hw.Page1GSize, hw.EPTAll); err != nil {
		panic(err)
	}
	cr3 := hw.GPA(0x40_0000)
	target := hw.HPA(0x99_9000)

	shallow := base.CloneShallow()
	copied, err := shallow.RemapGPA(cr3, target, hw.EPTRead|hw.EPTWrite)
	if err != nil {
		panic(err)
	}
	shallowPages := copied + 1

	deep := base.CloneDeep()
	if _, err := deep.RemapGPA(cr3, target, hw.EPTRead|hw.EPTWrite); err != nil {
		panic(err)
	}
	deepPages := deep.OwnedPages // all pages were copied up front

	return &AblationResult{
		Name: "EPT clone: shallow vs deep",
		ArmA: "shallow", ValueA: float64(shallowPages),
		ArmB: "deep", ValueB: float64(deepPages),
		Unit:     "pages",
		Comments: "paper §4.3: only four pages are modified per binding",
	}
}

// AblationHugepageEPT compares the 1 GiB hugepage base EPT against a
// 4 KiB-page base EPT: table pages consumed and the EPT-walk reads of a
// memory-touching workload (DESIGN.md ablation 2).
func AblationHugepageEPT() []*AblationResult {
	run := func(small bool) (pages int, walkReads uint64) {
		w := MustWorld(WorldConfig{
			Flavor: mk.SeL4, Virtualized: true, MemBytes: 2 << 30,
			HVConfig: hv.Config{SmallPageEPT: small},
		})
		pages = w.RK.BaseEPT.OwnedPages
		p := w.K.NewProcess("app")
		buf := p.Alloc(256 * hw.PageSize)
		p.Spawn("w", w.K.Mach.Cores[0], func(env *mk.Env) {
			for i := 0; i < 256; i++ {
				env.Write(buf+hw.VA(i*hw.PageSize), nil, 64)
			}
		})
		w.mustRun()
		walkReads = w.K.Mach.Cores[0].Counters.EPTWalkReads
		return
	}
	hugePages, hugeWalks := run(false)
	smallPages, smallWalks := run(true)
	return []*AblationResult{
		{
			Name: "base EPT tables: 1GiB vs 4KiB pages",
			ArmA: "hugepage", ValueA: float64(hugePages),
			ArmB: "smallpage", ValueB: float64(smallPages),
			Unit:     "pages",
			Comments: "paper §4.1: 1 GiB mappings keep the EPT tiny",
		},
		{
			Name: "EPT walk reads for 256-page touch",
			ArmA: "hugepage", ValueA: float64(hugeWalks),
			ArmB: "smallpage", ValueB: float64(smallWalks),
			Unit:     "reads",
			Comments: "hugepages shorten every 2-level walk",
		},
	}
}

// AblationExitless compares the exit-less VMCS configuration against a
// trap-everything hypervisor under an interrupt-heavy run (DESIGN.md
// ablation 3).
func AblationExitless() *AblationResult {
	run := func(trapAll bool) (cycles uint64, exits uint64) {
		w := MustWorld(WorldConfig{
			Flavor: mk.SeL4, Virtualized: true, MemBytes: 2 << 30,
			HVConfig: hv.Config{TrapAll: trapAll},
		})
		p := w.K.NewProcess("app")
		p.Spawn("w", w.K.Mach.Cores[0], func(env *mk.Env) {
			cpu := env.T.Core
			start := cpu.Clock
			for i := 0; i < 1000; i++ {
				env.Compute(500)
				if err := cpu.Interrupt(); err != nil {
					panic(err)
				}
			}
			cycles = cpu.Clock - start
		})
		w.mustRun()
		return cycles, w.K.Mach.TotalVMExits()
	}
	exitlessCycles, exitlessExits := run(false)
	trapCycles, trapExits := run(true)
	return &AblationResult{
		Name: "exit-less vs trap-all (1000 interrupts)",
		ArmA: "exit-less", ValueA: float64(exitlessCycles),
		ArmB: "trap-all", ValueB: float64(trapCycles),
		Unit:     "cycles",
		Comments: fmt.Sprintf("VM exits: %d vs %d", exitlessExits, trapExits),
	}
}

// AblationKeyCheck compares SkyBridge's optimistic user-mode calling-key
// check against a kernel-mediated per-call check (DESIGN.md ablation 4).
func AblationKeyCheck() *AblationResult {
	measure := func(kernelCheck bool) uint64 {
		w := MustWorld(WorldConfig{Flavor: mk.SeL4, SkyBridge: true})
		var cycles uint64
		skyPair(w, nullServer, func(env *mk.Env, _ int, conn svc.Conn) {
			cpu := env.T.Core
			cycles = timeRounds(env, 32, 256, nil, func() {
				if kernelCheck {
					// A kernel-mediated check adds a syscall round trip
					// per call.
					cpu.Syscall()
					cpu.Swapgs()
					cpu.Tick(98)
					cpu.Swapgs()
					cpu.Sysret()
				}
				conn.Invoke(env, svc.Req{})
			})
		})
		return cycles
	}
	return &AblationResult{
		Name: "calling-key check: user vs kernel",
		ArmA: "user-mode", ValueA: float64(measure(false)),
		ArmB: "kernel-mediated", ValueB: float64(measure(true)),
		Unit:     "cycles/call",
		Comments: "the optimistic check keeps the kernel off the path (§4.4)",
	}
}

// AblationVPID compares VPID-tagged EPTP switching (no TLB flush) against
// flush-on-switch hardware (DESIGN.md ablation 5).
func AblationVPID() *AblationResult {
	// touch reads one word from each of the 16 pages at buf: a small
	// working set, so lost TLB entries matter.
	touch := func(env *mk.Env, buf hw.VA) {
		for i := 0; i < 16; i++ {
			env.Read(buf+hw.VA(i*hw.PageSize), nil, 8)
		}
	}
	measure := func(flush bool) uint64 {
		w := MustWorld(WorldConfig{Flavor: mk.SeL4, SkyBridge: true})
		w.SB.FlushTLBOnSwitch = flush
		var cycles uint64
		skyPair(w, func(env *mk.Env) svc.Handler {
			srvBuf := env.P.Alloc(16 * hw.PageSize)
			return func(env *mk.Env, req svc.Req) svc.Resp {
				touch(env, srvBuf)
				return svc.Resp{}
			}
		}, func(env *mk.Env, _ int, conn svc.Conn) {
			cliBuf := env.P.Alloc(16 * hw.PageSize)
			cycles = timeRounds(env, 32, 128, nil, func() {
				touch(env, cliBuf)
				conn.Invoke(env, svc.Req{})
			})
		})
		return cycles
	}
	return &AblationResult{
		Name: "EPTP switch: VPID-tagged vs flushing",
		ArmA: "vpid", ValueA: float64(measure(false)),
		ArmB: "flush", ValueB: float64(measure(true)),
		Unit:     "cycles/call",
		Comments: "VPID keeps both sides' TLB entries live across VMFUNC (§2.2)",
	}
}

// AblationResults is the ablation suite's outcome, one comparison each.
type AblationResults []*AblationResult

// Ablations runs all design-choice ablations, recording each comparison.
func (s *Session) Ablations() AblationResults {
	var rs AblationResults
	rs = append(rs, AblationEPTClone())
	rs = append(rs, AblationHugepageEPT()...)
	rs = append(rs, AblationExitless(), AblationKeyCheck(), AblationVPID(), AblationTempMapping())
	for _, r := range rs {
		s.record(Record{
			Experiment: "ablation",
			Config:     map[string]string{"name": r.Name, "unit": r.Unit},
			Values:     map[string]float64{r.ArmA: r.ValueA, r.ArmB: r.ValueB},
		})
	}
	return rs
}

// Render formats the ablation summary.
func (rs AblationResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design-choice ablations (DESIGN.md §4)\n")
	for _, r := range rs {
		b.WriteString(r.Render())
	}
	return b.String()
}

// AblationTempMapping compares the default two-copy long-IPC transfer with
// L4's temporary-mapping optimization (§8.1) for a 12 KiB payload — an
// extension the paper calls "orthogonal to SkyBridge".
func AblationTempMapping() *AblationResult {
	run := func(tempMap bool) uint64 {
		w := MustWorld(WorldConfig{Flavor: mk.SeL4})
		w.K.Cfg.TempMapping = tempMap
		const payload = 12288
		var cycles uint64
		ipcPair(w, w.K.Mach.Cores[0], 4, func(env *mk.Env, ep *mk.Endpoint) {
			cliBuf := env.P.Alloc(4 * hw.PageSize)
			cliReply := env.P.Alloc(4 * hw.PageSize)
			cycles = timeRounds(env, 8, 32, nil, func() {
				env.Call(ep, mk.Msg{Buf: cliBuf, Len: payload}, cliReply)
			})
		})
		return cycles
	}
	return &AblationResult{
		Name: "long IPC: two-copy vs temp mapping (12KiB)",
		ArmA: "temp-map", ValueA: float64(run(true)),
		ArmB: "two-copy", ValueB: float64(run(false)),
		Unit:     "cycles/rt",
		Comments: "L4's temporary mapping (§8.1), orthogonal to SkyBridge",
	}
}
