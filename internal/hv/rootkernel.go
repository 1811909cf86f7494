// Package hv implements the Rootkernel: SkyBridge's tiny hypervisor
// (paper §4.1). It is deliberately minimal — EPT management, a dynamic
// self-virtualization module, and handlers for the few unavoidable VM exits
// (CPUID, VMCALL, EPT violation).
//
// The Rootkernel's whole design centers on not being there at runtime:
//
//   - It is booted BY the Subkernel ("inspired by CloudVisor, SkyBridge does
//     not contain the machine bootstrap code"): Boot downgrades the already-
//     running kernel to VMX non-root mode.
//   - The base EPT identity-maps (almost) all physical memory with 1 GiB
//     hugepages, so the Subkernel never takes an EPT violation and the
//     2-level translation stays cheap.
//   - The VMCS is configured so privileged instructions and external
//     interrupts do NOT exit; Table 5's "zero VM exits" is reproduced
//     literally.
//   - A small region of physical memory is reserved for the Rootkernel's
//     own structures (EPT pages); it is absent from the base EPT, so guest
//     access to it faults — the isolation tests rely on this.
package hv

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// Hypercall numbers (the VMCALL interface between Subkernel and Rootkernel).
const (
	// HCBind binds a client to a server: clone the base EPT, remap the
	// client's CR3 GPA to the server's page-table root, and install the
	// result at the server's global EPTP index in the client's list.
	HCBind = iota + 1
	// HCInstallList installs a process's EPTP list on the current core
	// (issued by the Subkernel on context switch, §4.2).
	HCInstallList
	// HCRegisterServer assigns a global EPTP-list index to a server.
	HCRegisterServer
)

// Config tunes the Rootkernel.
type Config struct {
	// TrapAll configures a legacy-hypervisor-style VMCS where CR3 writes
	// and external interrupts exit — the ablation baseline for the
	// exit-less design.
	TrapAll bool
	// SmallPageEPT builds the base EPT from 4 KiB pages instead of 1 GiB
	// hugepages — the ablation baseline for the hugepage design.
	SmallPageEPT bool
}

const (
	// reservedBytes is the physical memory kept for the Rootkernel (the
	// paper reserves 100 MB).
	reservedBytes = 128 << 20
	// bootCycles is charged to core 0 for the self-virtualization
	// sequence (~0.5 ms at 4 GHz).
	bootCycles = 2_000_000
)

// regionAlloc is a bump allocator over the Rootkernel's reserved region.
type regionAlloc struct {
	next, top hw.HPA
}

// AllocFrame implements hw.FrameSource.
func (r *regionAlloc) AllocFrame() (hw.HPA, error) {
	if r.next+hw.PageSize > r.top {
		return 0, fmt.Errorf("hv: rootkernel reserved region exhausted")
	}
	h := r.next
	r.next += hw.PageSize
	return h, nil
}

// procState is the Rootkernel's per-process bookkeeping.
type procState struct {
	proc *mk.Process
	// selfEPT is the process's slot-0 EPT (an unmodified shallow clone of
	// the base EPT except for the identity page, "EPT-C" in Figure 6).
	selfEPT *hw.EPT
	// identityFrame backs this process's identity page (§4.2): every EPT
	// maps IdentityGPA to the frame of the process whose view it is.
	identityFrame hw.HPA
	// list is the process's hardware EPTP-list image, indexed by slot.
	list [hw.EPTPListSize]*hw.EPT
	// bindings maps virtual server IDs to their CR3-remapped EPT views;
	// the hardware list caches up to 511 of them (see eptplru.go).
	bindings map[int]*hw.EPT
	// slots is the slot-cache state (lazily created).
	slots *slotState
	// hasBindings marks processes whose list differs from the trivial
	// one; only those require an EPTP-list install on context switch.
	hasBindings bool
}

// Rootkernel is the hypervisor instance.
type Rootkernel struct {
	Cfg  Config
	Mach *hw.Machine
	Sub  *mk.Kernel

	BaseEPT *hw.EPT
	alloc   *regionAlloc
	resLo   hw.HPA
	resHi   hw.HPA

	procs map[*mk.Process]*procState
	// Global server index assignment (index 0 is reserved for "self").
	nextIndex int

	// installed tracks which process's list each core currently has.
	installed []*mk.Process

	// haveBindings is set once any SkyBridge binding exists anywhere; it
	// gates the context-switch EPTP-list install. It is deliberately
	// separate from the Bindings counter, which benchmarks may reset.
	haveBindings bool

	// Stats. All of these are bound into the machine's obs registry at
	// Boot, so Machine.ResetStats clears them together with the hardware
	// counters.
	Hypercalls    uint64
	ListInstall   uint64
	Bindings      uint64
	slotLoads     uint64
	slotEvictions uint64
}

// Boot self-virtualizes: the Subkernel (already running) loads the
// Rootkernel, which builds the base EPT, configures a VMCS per core with
// every avoidable exit disabled, and downgrades all cores to non-root mode.
func Boot(sub *mk.Kernel, cfg Config) (*Rootkernel, error) {
	mach := sub.Mach
	lo, hi, err := mach.Mem.ReserveRegionAligned(reservedBytes, hw.Page2MSize)
	if err != nil {
		return nil, err
	}
	rk := &Rootkernel{
		Cfg:       cfg,
		Mach:      mach,
		Sub:       sub,
		alloc:     &regionAlloc{next: lo, top: hi},
		resLo:     lo,
		resHi:     hi,
		procs:     make(map[*mk.Process]*procState),
		nextIndex: 1,
		installed: make([]*mk.Process, len(mach.Cores)),
	}
	if err := rk.buildBaseEPT(); err != nil {
		return nil, err
	}
	mach.Obs.Bind("hv.hypercalls", &rk.Hypercalls)
	mach.Obs.Bind("hv.list_installs", &rk.ListInstall)
	mach.Obs.Bind("hv.bindings", &rk.Bindings)
	mach.Obs.Bind("hv.slot_loads", &rk.slotLoads)
	mach.Obs.Bind("hv.slot_evictions", &rk.slotEvictions)

	controls := hw.VMExitControls{ExitOnCPUID: true}
	if cfg.TrapAll {
		controls.ExitOnCR3Write = true
		controls.ExitOnExternalIntr = true
		controls.ExitOnHLT = true
	}
	for _, cpu := range mach.Cores {
		vmcs := &hw.VMCS{Controls: controls}
		vmcs.EPTPList[0] = rk.BaseEPT
		cpu.VMCS = vmcs
		cpu.NonRoot = true
		cpu.SetEPT(rk.BaseEPT)
	}
	mach.SetExitHandler(rk.handleExit)
	mach.Cores[0].Tick(bootCycles)

	// Hook the Subkernel: EPT state for new processes, EPTP-list install
	// on context switch (§4.2).
	sub.OnProcessCreate = func(p *mk.Process) { rk.ensureProc(p) }
	sub.OnContextSwitch = rk.onContextSwitch
	for _, p := range sub.Procs() {
		rk.ensureProc(p)
	}
	// Boot-time exits (CPUID probing etc.) are not steady-state; clear.
	mach.ResetVMExitCounts()
	return rk, nil
}

// buildBaseEPT identity-maps all guest-visible memory: 1 GiB hugepages
// everywhere except the GiB containing the reserved region, which is mapped
// with 2 MiB pages that skip the reservation (so guest access to Rootkernel
// memory faults).
func (rk *Rootkernel) buildBaseEPT() error {
	rk.BaseEPT = hw.NewEPTFrom(rk.Mach.Mem, rk.alloc)
	total := rk.Mach.Mem.Size()
	if rk.Cfg.SmallPageEPT {
		// Ablation: identity-map everything except the reservation with
		// 4 KiB pages.
		n := int(uint64(rk.resLo) / hw.PageSize)
		if err := rk.BaseEPT.MapIdentityRange(0, n, hw.PageSize, hw.EPTAll); err != nil {
			return err
		}
		above := int((total - uint64(rk.resHi)) / hw.PageSize)
		return rk.BaseEPT.MapIdentityRange(hw.GPA(rk.resHi), above, hw.PageSize, hw.EPTAll)
	}
	for gb := uint64(0); gb < total; gb += hw.Page1GSize {
		gbEnd := gb + hw.Page1GSize
		switch {
		case gbEnd <= uint64(rk.resLo) || gb >= uint64(rk.resHi):
			if err := rk.BaseEPT.Map(hw.GPA(gb), hw.HPA(gb), hw.Page1GSize, hw.EPTAll); err != nil {
				return err
			}
		default:
			// Mixed GiB: 2 MiB pages, skipping the reserved range.
			for m := gb; m < gbEnd; m += hw.Page2MSize {
				if m >= uint64(rk.resLo) && m < uint64(rk.resHi) {
					continue
				}
				if err := rk.BaseEPT.Map(hw.GPA(m), hw.HPA(m), hw.Page2MSize, hw.EPTAll); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// IdentityGPA returns the fixed guest-physical address of the identity
// page: the first page of the reserved region, which is guaranteed
// unmapped in the base EPT, so per-EPT remapping fully controls it.
func (rk *Rootkernel) IdentityGPA() hw.GPA { return hw.GPA(rk.resLo) }

func (rk *Rootkernel) ensureProc(p *mk.Process) *procState {
	if ps, ok := rk.procs[p]; ok {
		return ps
	}
	ps := &procState{proc: p, selfEPT: rk.BaseEPT.CloneShallow(), bindings: make(map[int]*hw.EPT)}
	// Identity page: a per-process frame holding the PID, remapped at the
	// shared IdentityGPA in this process's own EPT view and mapped into
	// the kernel half of its page table.
	ps.identityFrame = mustAlloc(rk.alloc)
	writePID(rk.Mach.Mem, ps.identityFrame, uint64(p.PID))
	if _, err := ps.selfEPT.RemapGPA(rk.IdentityGPA(), ps.identityFrame, hw.EPTRead|hw.EPTWrite); err != nil {
		panic(fmt.Sprintf("hv: identity remap: %v", err))
	}
	if err := p.PT.Map(mk.KernelIdentityVA, rk.IdentityGPA(), hw.PTEWrite); err != nil {
		panic(fmt.Sprintf("hv: identity kernel mapping: %v", err))
	}
	ps.list[0] = ps.selfEPT
	rk.procs[p] = ps
	return ps
}

func mustAlloc(src hw.FrameSource) hw.HPA {
	h, err := src.AllocFrame()
	if err != nil {
		panic(err)
	}
	return h
}

func writePID(mem *hw.PhysMem, frame hw.HPA, pid uint64) {
	mem.WriteU64(frame, pid)
}

// onContextSwitch installs the next process's EPTP list ("before scheduling
// a new client, SkyBridge installs a new EPTP list for it", §3.2). While no
// SkyBridge binding exists anywhere, every list is trivial and the active
// EPT is the base EPT, so no install (and no VM exit) is needed — this is
// why Table 5 measures zero exits for non-SkyBridge workloads. Once
// bindings exist, every process switch installs the next process's list,
// which also strips a malicious unregistered process of any leftover EPTP
// entries (its trivial list makes every VMFUNC index invalid).
func (rk *Rootkernel) onContextSwitch(cpu *hw.CPU, next *mk.Process) {
	if !rk.haveBindings || rk.installed[cpu.ID] == next {
		return
	}
	call := &hw.Hypercall{Nr: HCInstallList, Ptr: next}
	if _, err := cpu.VMCall(call); err != nil {
		panic(fmt.Sprintf("hv: EPTP list install failed: %v", err))
	}
}

// handleExit is the machine's VM-exit handler.
func (rk *Rootkernel) handleExit(cpu *hw.CPU, exit *hw.VMExit) error {
	switch exit.Reason {
	case hw.ExitCPUID:
		return nil // emulate and resume
	case hw.ExitHLT, hw.ExitCR3Write, hw.ExitExternalInterrupt:
		return nil // trap-all ablation: bounce back in
	case hw.ExitVMCall:
		rk.Hypercalls++
		return rk.hypercall(cpu, exit.Hypercall)
	case hw.ExitEPTViolation:
		// A genuine violation: the guest touched unmapped or forbidden
		// host memory (e.g. the Rootkernel's reservation). Refuse.
		return exit
	case hw.ExitVMFuncFail:
		return exit
	default:
		return exit
	}
}

// hypercall dispatches the VMCALL interface.
func (rk *Rootkernel) hypercall(cpu *hw.CPU, call *hw.Hypercall) error {
	switch call.Nr {
	case HCRegisterServer:
		p := call.Ptr.(*mk.Process)
		idx, err := rk.registerServer(p)
		if err != nil {
			call.Err = err
			return nil
		}
		call.Ret = uint64(idx)
		return nil
	case HCBind:
		args := call.Ptr.(*BindArgs)
		call.Err = rk.bind(args)
		return nil
	case HCInstallList:
		p := call.Ptr.(*mk.Process)
		rk.installList(cpu, p)
		return nil
	case HCLoadSlot:
		args := call.Ptr.(*LoadSlotArgs)
		call.Err = rk.loadSlot(cpu, args)
		return nil
	default:
		call.Err = fmt.Errorf("hv: unknown hypercall %d", call.Nr)
		return nil
	}
}

// registerServer assigns the next global EPTP index to a server process.
func (rk *Rootkernel) registerServer(p *mk.Process) (int, error) {
	rk.ensureProc(p)
	if rk.nextIndex >= MaxVirtualServers {
		return 0, fmt.Errorf("hv: virtual server space exhausted (%d)", rk.nextIndex-1)
	}
	idx := rk.nextIndex
	rk.nextIndex++
	return idx, nil
}

// BindArgs is the HCBind payload.
type BindArgs struct {
	Client *mk.Process
	Server *mk.Process
	// Index is the server's global EPTP index (from HCRegisterServer).
	Index int
	// PagesCopied reports how many EPT table pages the remap touched.
	PagesCopied int
}

// bind creates the server-view EPT for a client: a shallow clone of the
// base EPT whose only change is remapping the GPA of the *client's* CR3 to
// the HPA of the *server's* page-table root (Figure 6). The binding is
// recorded under the server's virtual ID and eagerly loaded into a
// hardware slot (evicting LRU entries once more than 511 servers are
// bound, §10).
func (rk *Rootkernel) bind(args *BindArgs) error {
	if args.Index <= 0 || args.Index >= MaxVirtualServers {
		return fmt.Errorf("hv: bind with invalid index %d", args.Index)
	}
	cps := rk.ensureProc(args.Client)
	rk.ensureProc(args.Server)

	clientCR3 := args.Client.PT.Root.PageBase()
	// Under the identity base EPT the server's page-table root frame is at
	// HPA == GPA.
	serverRootHPA := hw.HPA(args.Server.PT.Root)

	eptS := rk.BaseEPT.CloneShallow()
	copied, err := eptS.RemapGPA(clientCR3, serverRootHPA, hw.EPTRead|hw.EPTWrite)
	if err != nil {
		return err
	}
	// The server view also carries the server's identity page, so a kernel
	// entry while the thread executes server code attributes correctly.
	sps := rk.ensureProc(args.Server)
	if _, err := eptS.RemapGPA(rk.IdentityGPA(), sps.identityFrame, hw.EPTRead|hw.EPTWrite); err != nil {
		return err
	}
	args.PagesCopied = copied + 1 // + the cloned root
	cps.bindings[args.Index] = eptS
	cps.hasBindings = true
	rk.Bindings++
	rk.haveBindings = true
	// Eagerly load the binding into a hardware slot.
	load := &LoadSlotArgs{Proc: args.Client, ServerID: args.Index}
	if err := rk.loadSlot(nil, load); err != nil {
		return err
	}
	// Refresh the list on any core currently running this client (we are
	// in root mode handling the hypercall, so a direct install is legal).
	for _, cpu := range rk.Mach.Cores {
		if rk.installed[cpu.ID] == args.Client {
			rk.installList(cpu, args.Client)
		}
	}
	return nil
}

// installList loads a process's EPTP list into the core's VMCS and makes
// slot 0 (the process's own view) the active EPT.
func (rk *Rootkernel) installList(cpu *hw.CPU, p *mk.Process) {
	ps := rk.ensureProc(p)
	for i := range cpu.VMCS.EPTPList {
		cpu.VMCS.EPTPList[i] = ps.list[i]
	}
	cpu.VMCS.CurrentIndex = 0
	cpu.SetEPT(ps.list[0])
	rk.installed[cpu.ID] = p
	rk.ListInstall++
	if cpu.Trace != nil {
		cpu.Trace.Instant(cpu.Clock, "eptp.install", "hv", obs.U("pid", uint64(p.PID)))
		if fid := cpu.FlowID; fid != 0 {
			cpu.Trace.FlowStep(cpu.Clock, fid, "flow.eptp_install", "flow")
		}
	}
}

// Bind is the Subkernel-side convenience wrapper issuing the HCBind
// hypercall from the given core.
func (rk *Rootkernel) Bind(cpu *hw.CPU, client, server *mk.Process, index int) (int, error) {
	args := &BindArgs{Client: client, Server: server, Index: index}
	if _, err := cpu.VMCall(&hw.Hypercall{Nr: HCBind, Ptr: args}); err != nil {
		return 0, err
	}
	return args.PagesCopied, nil
}

// RegisterServer issues HCRegisterServer from the given core.
func (rk *Rootkernel) RegisterServer(cpu *hw.CPU, p *mk.Process) (int, error) {
	call := &hw.Hypercall{Nr: HCRegisterServer, Ptr: p}
	idx, err := cpu.VMCall(call)
	if err != nil {
		return 0, err
	}
	return int(idx), nil
}

// InstallFor force-installs a process's EPTP list on a core via hypercall.
// The SkyBridge registration path calls this so a freshly bound process can
// VMFUNC without waiting for its next context switch.
func (rk *Rootkernel) InstallFor(cpu *hw.CPU, p *mk.Process) error {
	_, err := cpu.VMCall(&hw.Hypercall{Nr: HCInstallList, Ptr: p})
	return err
}
