// Package mk implements the Subkernel side of the reproduction: a
// microkernel framework (processes, virtual address spaces, capabilities,
// synchronous IPC endpoints) with three flavor profiles reproducing the IPC
// path structure of the kernels the paper evaluates:
//
//   - seL4: fastpath IPC for same-core register-sized messages with no
//     capability transfer; slowpath with IPI for cross-core IPC.
//   - Fiasco.OC: fastpath that additionally drains deferred requests (drq),
//     making it slower than seL4's.
//   - Zircon: no fastpath — every IPC enters the scheduler and performs two
//     message copies through a kernel buffer.
//
// Kernels execute on hw.CPU cores inside a sim.Engine: every syscall,
// SWAPGS, CR3 write, IPI, kernel code touch, and message copy is charged
// against the core's cycle clock and pollutes its caches and TLBs, which is
// what reproduces both the direct costs (Figure 7) and the indirect costs
// (Table 1, Figure 2) of kernel-mediated IPC.
package mk

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/sim"
)

// Flavor selects a microkernel IPC-path profile.
type Flavor int

// Kernel flavors.
const (
	SeL4 Flavor = iota
	Fiasco
	Zircon
)

// String implements fmt.Stringer.
func (f Flavor) String() string {
	switch f {
	case SeL4:
		return "seL4"
	case Fiasco:
		return "Fiasco.OC"
	case Zircon:
		return "Zircon"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// profile holds the per-flavor IPC path structure. Text/data footprints are
// touched through the cache model (producing pollution and cold-start
// misses); residual cycles cover the warm-path kernel work that is not
// separately itemized. Residuals are calibrated so warm round-trip costs
// land on the paper's Figure 7 measurements (seL4 986, Fiasco 2717, Zircon
// 8157 cycles; cross-core 6764 / 8440 / 20099).
type profile struct {
	hasFastpath bool

	fastTextBytes int    // i-cache footprint of the fastpath, per one-way
	fastDataLines int    // d-cache lines of endpoint/TCB state touched
	fastResidual  uint64 // warm fastpath logic beyond itemized costs

	slowTextBytes int
	slowDataLines int
	slowResidual  uint64

	// schedCycles is charged when the IPC path enters the scheduler
	// (Zircon always; every kernel on the cross-core slowpath).
	schedCycles uint64
	// msgCopies is the number of copies each one-way message transfer
	// performs through the kernel (Zircon: 2 — sender buffer to kernel,
	// kernel to receiver buffer).
	msgCopies int
	// copySetup is the fixed per-copy overhead independent of length.
	copySetup uint64
	// crossExtra is additional per-IPI-send scheduling work on the
	// cross-core path (Zircon's remote-queue handling and preemption,
	// which make its cross-core IPC disproportionately expensive).
	crossExtra uint64
}

var profiles = map[Flavor]profile{
	SeL4: {
		hasFastpath:   true,
		fastTextBytes: 512, fastDataLines: 2, fastResidual: 58,
		slowTextBytes: 1024, slowDataLines: 4, slowResidual: 105,
		schedCycles: 250,
		msgCopies:   0, copySetup: 0,
	},
	Fiasco: {
		hasFastpath:   true,
		fastTextBytes: 1536, fastDataLines: 4, fastResidual: 850,
		slowTextBytes: 2048, slowDataLines: 6, slowResidual: 695,
		schedCycles: 300,
		msgCopies:   0, copySetup: 0,
	},
	Zircon: {
		hasFastpath:   false,
		fastTextBytes: 0, fastDataLines: 0, fastResidual: 0,
		slowTextBytes: 2048, slowDataLines: 8, slowResidual: 1273,
		schedCycles: 1100,
		msgCopies:   2, copySetup: 180,
		crossExtra: 3644,
	},
}

// Config configures a kernel instance.
type Config struct {
	Flavor Flavor
	// KPTI enables the Meltdown mitigation: the kernel runs on its own
	// page table, adding two CR3 writes per kernel crossing (§2.1.1).
	KPTI bool
	// TempMapping enables L4's temporary-mapping optimization for long
	// IPC (§8.1): the sender's buffer is mapped into the receiver's
	// address space and copied once, instead of twice through the kernel
	// buffer. Orthogonal to (and combinable with) SkyBridge.
	TempMapping bool
}

// VA layout constants.
const (
	// KernelBase is the bottom of the kernel half of every address space.
	KernelBase hw.VA = 0xffff_8000_0000_0000
	// UserTextBase is where process code pages are mapped.
	UserTextBase hw.VA = 0x40_0000
	// UserHeapBase is where process heap allocations start.
	UserHeapBase hw.VA = 0x1000_0000
	// UserStackTop is the top of the initial thread stack region.
	UserStackTop hw.VA = 0x7fff_f000_0000
	// KernelIdentityVA is the kernel mapping of the SkyBridge identity
	// page (§4.2): its guest-physical address is remapped per EPT, so the
	// kernel can read the identity of the process whose EPT view the core
	// currently runs under — the fix for the process-misidentification
	// problem.
	KernelIdentityVA hw.VA = 0xffff_9000_0000_0000
)

// Kernel is one microkernel instance (the Subkernel) running on a machine.
type Kernel struct {
	Cfg  Config
	Eng  *sim.Engine
	Mach *hw.Machine

	prof profile

	procs   []*Process
	nextPID int

	// Kernel footprint regions (identity frames mapped supervisor into
	// every process).
	textVA    hw.VA
	textGPA   hw.GPA
	textPages int
	dataVA    hw.VA
	dataGPA   hw.GPA
	dataPages int

	// Kernel heap: pages allocated after boot (endpoint buffers etc.),
	// mapped supervisor-only into every process.
	kheapNext hw.VA
	kheap     []kernelPage

	// endpoints lists created endpoints (window allocation).
	endpoints []*Endpoint

	// stagePool recycles staged-payload buffers (leg.stage)
	// by exact size. Host-side only: a staged buffer is exclusively owned by
	// its in-flight call from copy-in until the consuming copy-out, which
	// returns it here. Payload sizes repeat heavily (the same buffers are
	// shipped every round trip), so the pool turns the per-message
	// allocation — the hottest allocation site in the whole suite — into a
	// slice pop.
	stagePool map[int][][]byte

	// curProc tracks the process whose page table each core has installed.
	curProc []*Process

	// Hooks for the Rootkernel / SkyBridge integration (§4.2: "the process
	// creation part is also modified to call the EPT management part" and
	// "when the Subkernel decides to do a context switch ... it will
	// notify the Rootkernel to install the next process's EPTP list").
	OnProcessCreate func(p *Process)
	OnContextSwitch func(cpu *hw.CPU, next *Process)

	// Stats.
	IPCCalls  uint64
	Fastpaths uint64
	Slowpaths uint64

	// Adaptive-wakeup stats (wakeup.go): how waits resolved and what the
	// spinning cost.
	SpinWakes  uint64 // waits satisfied within the spin budget
	Parks      uint64 // waits that gave up spinning and HLTed
	LocalWakes uint64 // parked threads woken by a same-core waker
	IPIWakes   uint64 // parked threads woken by a cross-core IPI
	SpinCycles uint64 // total cycles spent polling before resolution

	// wakeSeq numbers waker->sleeper flow arrows in the trace. Allocated
	// only while the waker's core has a trace attached, so untraced runs
	// are untouched; per-kernel, so parallel bench workers stay
	// deterministic.
	wakeSeq uint64

	// BD, when non-nil, receives a cycle breakdown of kernel IPC work
	// (used to regenerate Figure 7).
	BD *Breakdown
}

// New boots a kernel of the given flavor on a fresh engine+machine.
func New(cfg Config, eng *sim.Engine) *Kernel {
	k := &Kernel{
		Cfg:  cfg,
		Eng:  eng,
		Mach: eng.Mach,
		prof: profiles[cfg.Flavor],
	}
	k.curProc = make([]*Process, len(k.Mach.Cores))
	k.Mach.Obs.Bind("mk.ipc_calls", &k.IPCCalls)
	k.Mach.Obs.Bind("mk.fastpaths", &k.Fastpaths)
	k.Mach.Obs.Bind("mk.slowpaths", &k.Slowpaths)
	k.Mach.Obs.Bind("mk.wake_spin", &k.SpinWakes)
	k.Mach.Obs.Bind("mk.wake_parks", &k.Parks)
	k.Mach.Obs.Bind("mk.wake_local", &k.LocalWakes)
	k.Mach.Obs.Bind("mk.wake_ipi", &k.IPIWakes)
	k.Mach.Obs.Bind("mk.wake_spin_cycles", &k.SpinCycles)

	// Allocate kernel text and data footprint frames.
	k.textPages = 4
	k.dataPages = 2
	k.textVA = KernelBase
	k.dataVA = KernelBase + hw.VA(k.textPages*hw.PageSize)
	textFrame := k.Mach.Mem.MustAllocFrame()
	for i := 1; i < k.textPages; i++ {
		k.Mach.Mem.MustAllocFrame()
	}
	dataFrame := k.Mach.Mem.MustAllocFrame()
	for i := 1; i < k.dataPages; i++ {
		k.Mach.Mem.MustAllocFrame()
	}
	// Frames are allocated top-down contiguously: recover the range bases.
	k.textGPA = hw.GPA(textFrame) - hw.GPA((k.textPages-1)*hw.PageSize)
	k.dataGPA = hw.GPA(dataFrame) - hw.GPA((k.dataPages-1)*hw.PageSize)
	k.kheapNext = k.dataVA + hw.VA(k.dataPages*hw.PageSize)
	return k
}

type kernelPage struct {
	va  hw.VA
	gpa hw.GPA
}

// allocKernelPage allocates one kernel-heap page, maps it supervisor-only
// into every existing process, and returns its kernel VA. Processes created
// later receive the mapping in mapKernelInto.
func (k *Kernel) allocKernelPage() hw.VA {
	frame := k.Mach.Mem.MustAllocFrame()
	va := k.kheapNext
	k.kheapNext += hw.PageSize
	kp := kernelPage{va: va, gpa: hw.GPA(frame)}
	k.kheap = append(k.kheap, kp)
	for _, p := range k.procs {
		if err := p.PT.Map(va, kp.gpa, hw.PTEWrite); err != nil {
			panic(err)
		}
	}
	return va
}

// mapKernelInto maps the kernel footprint into a process page table as
// supervisor-only pages (the user bit is clear, so ring 3 cannot touch it —
// and with KPTI these pages would live in a separate table entirely; the
// extra CR3 switches are charged on the IPC path instead of splitting the
// table, which has identical cost behaviour).
func (k *Kernel) mapKernelInto(pt *hw.PageTable) {
	if err := pt.MapRange(k.textVA, k.textGPA, k.textPages, hw.PTEWrite); err != nil {
		panic(err)
	}
	if err := pt.MapRange(k.dataVA, k.dataGPA, k.dataPages, hw.PTEWrite); err != nil {
		panic(err)
	}
	for _, kp := range k.kheap {
		if err := pt.Map(kp.va, kp.gpa, hw.PTEWrite); err != nil {
			panic(err)
		}
	}
}

// Procs returns the kernel's process list.
func (k *Kernel) Procs() []*Process { return k.procs }

// switchTo installs proc's address space on cpu, charging the CR3 write
// (and notifying the Rootkernel hook so it can install the EPTP list).
func (k *Kernel) switchTo(cpu *hw.CPU, proc *Process) {
	if k.curProc[cpu.ID] == proc {
		return
	}
	prevMode := cpu.Mode
	cpu.Mode = hw.ModeKernel
	if err := cpu.WriteCR3(proc.PT.Root, proc.PCID); err != nil {
		panic(err)
	}
	k.curProc[cpu.ID] = proc
	if k.OnContextSwitch != nil {
		k.OnContextSwitch(cpu, proc)
	}
	cpu.Mode = prevMode
}

// EnsureOn restores proc's address space on cpu if another process's
// context became resident. SkyBridge uses it when a thread resumes a
// direct-call chain after parking inside a server handler: threads of
// other processes may have run on the core meanwhile, and the chain's
// context process must own CR3 (and, via the context-switch hook, the
// EPTP list) before the next VMFUNC. No-op when proc is already current.
func (k *Kernel) EnsureOn(cpu *hw.CPU, proc *Process) { k.switchTo(cpu, proc) }

// kptiEnter/kptiExit charge the Meltdown-mitigation page-table switches.
func (k *Kernel) kptiEnter(cpu *hw.CPU) {
	if k.Cfg.KPTI {
		cpu.Clock += hw.CostWriteCR3
	}
}

func (k *Kernel) kptiExit(cpu *hw.CPU) {
	if k.Cfg.KPTI {
		cpu.Clock += hw.CostWriteCR3
	}
}

// enterKernel is every kernel entry from user mode: SYSCALL and SWAPGS,
// then KPTI's switch to the kernel page table.
func (k *Kernel) enterKernel(cpu *hw.CPU) {
	k.record(cpu, CatSyscall, func() { cpu.Syscall(); cpu.Swapgs() })
	k.record(cpu, CatCtxSw, func() { k.kptiEnter(cpu) })
}

// exitKernel is every return to user mode: KPTI's switch back to the user
// page table, then sysret.
func (k *Kernel) exitKernel(cpu *hw.CPU) {
	k.record(cpu, CatCtxSw, func() { k.kptiExit(cpu) })
	k.sysret(cpu)
}

// sysret is the SWAPGS+SYSRET tail of exitKernel. The paths that charged
// KPTI's switch back earlier, or charge none, return through it alone.
func (k *Kernel) sysret(cpu *hw.CPU) {
	k.record(cpu, CatSyscall, func() { cpu.Swapgs(); cpu.Sysret() })
}

// CurrentIdentity reads the SkyBridge identity page through its kernel
// mapping, returning the PID of the process whose EPT view is active. It
// returns 0 when no identity page is mapped (no Rootkernel, or the process
// never registered with SkyBridge).
func (k *Kernel) CurrentIdentity(cpu *hw.CPU) uint64 {
	prevMode := cpu.Mode
	cpu.Mode = hw.ModeKernel
	defer func() { cpu.Mode = prevMode }()
	pid, err := cpu.LoadU64(KernelIdentityVA)
	if err != nil {
		return 0
	}
	return pid
}

// rawRead snapshots n bytes at va in p's address space via an uncharged
// software page walk (used by the temporary-mapping transfer path, where
// the charged traffic happens through the mapped window).
func (k *Kernel) rawRead(p *Process, va hw.VA, n int) []byte {
	out := k.getStage(n)
	for pos := 0; pos < n; {
		cur := va + hw.VA(pos)
		gpa, _, ok := p.PT.Walk(cur)
		if !ok {
			panic(fmt.Sprintf("mk: rawRead: %s va %#x unmapped", p.Name, uint64(cur)))
		}
		chunk := int(hw.PageSize - cur.PageOff())
		if chunk > n-pos {
			chunk = n - pos
		}
		k.Mach.Mem.Read(hw.HPA(gpa), out[pos:pos+chunk])
		pos += chunk
	}
	return out
}

// touchKernel models the kernel executing textBytes of IPC-path code and
// touching dataLines of kernel state, through the core's caches.
func (k *Kernel) touchKernel(cpu *hw.CPU, textBytes, dataLines int) {
	if textBytes > 0 {
		if err := cpu.TouchCode(k.textVA, textBytes); err != nil {
			panic(fmt.Sprintf("mk: kernel text touch failed: %v", err))
		}
	}
	for i := 0; i < dataLines; i++ {
		if err := cpu.ReadData(k.dataVA+hw.VA(i*hw.LineSize), nil, 8); err != nil {
			panic(fmt.Sprintf("mk: kernel data touch failed: %v", err))
		}
	}
}
