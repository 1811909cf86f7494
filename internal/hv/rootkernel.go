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
	// identityFrame backs this process's identity page (§4.2): every EPT
	// maps IdentityGPA to the frame of the process whose view it is.
	identityFrame hw.HPA
	// list is the process's hardware EPTP list, indexed by slot; a core
	// running the process points its VMCS at it. Slot 0 is the process's
	// own view, an unmodified shallow clone of the base EPT except for the
	// identity page ("EPT-C" in Figure 6).
	list [hw.EPTPListSize]*hw.EPT
	// bindings maps virtual server IDs to their CR3-remapped EPT views;
	// the list caches up to 511 of them (see eptplru.go).
	bindings map[int]*hw.EPT
	slots    slotState
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
	Hypercalls  uint64
	ListInstall uint64
	Bindings    uint64
	// SlotLoads counts slot loads (each eager bind and each resolve miss,
	// which is one VM exit); SlotEvictions counts displaced bindings.
	SlotLoads     uint64
	SlotEvictions uint64
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
	mach.Obs.Bind("hv.slot_loads", &rk.SlotLoads)
	mach.Obs.Bind("hv.slot_evictions", &rk.SlotEvictions)

	controls := hw.VMExitControls{ExitOnCPUID: true}
	if cfg.TrapAll {
		controls.ExitOnCR3Write = true
		controls.ExitOnExternalIntr = true
		controls.ExitOnHLT = true
	}
	// Every core starts on one base list: the base EPT alone.
	base := &[hw.EPTPListSize]*hw.EPT{rk.BaseEPT}
	for _, cpu := range mach.Cores {
		cpu.VMCS = &hw.VMCS{Controls: controls, EPTPList: base}
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
	self := rk.BaseEPT.CloneShallow()
	frame, err := rk.alloc.AllocFrame()
	if err != nil {
		panic(err)
	}
	ps := &procState{identityFrame: frame, bindings: make(map[int]*hw.EPT)}
	ps.slots.serverSlot = make(map[int]int)
	ps.list[0] = self
	// Identity page: a per-process frame holding the PID, remapped at the
	// shared IdentityGPA in this process's own EPT view and mapped into
	// the kernel half of its page table.
	rk.Mach.Mem.WriteU64(frame, uint64(p.PID))
	if _, err := self.RemapGPA(rk.IdentityGPA(), frame, hw.EPTRead|hw.EPTWrite); err != nil {
		panic(fmt.Sprintf("hv: identity remap: %v", err))
	}
	if err := p.PT.Map(mk.KernelIdentityVA, rk.IdentityGPA(), hw.PTEWrite); err != nil {
		panic(fmt.Sprintf("hv: identity kernel mapping: %v", err))
	}
	rk.procs[p] = ps
	return ps
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
	if err := rk.InstallFor(cpu, next); err != nil {
		panic(fmt.Sprintf("hv: EPTP list install failed: %v", err))
	}
}

// handleExit is the machine's VM-exit handler. A hypercall's work runs
// here, after the exit has been charged, counted and traced.
func (rk *Rootkernel) handleExit(cpu *hw.CPU, exit *hw.VMExit) error {
	switch exit.Reason {
	case hw.ExitCPUID, hw.ExitHLT, hw.ExitCR3Write, hw.ExitExternalInterrupt:
		return nil // emulate CPUID; the trap-all ablation's exits bounce back in
	case hw.ExitVMCall:
		rk.Hypercalls++
		return exit.Hypercall(cpu)
	default:
		// A genuine EPT violation (the guest touched unmapped or forbidden
		// host memory, e.g. the Rootkernel's reservation) or a failed
		// VMFUNC. Refuse.
		return exit
	}
}

// RegisterServer assigns the next global EPTP index to a server process,
// by hypercall from the given core.
func (rk *Rootkernel) RegisterServer(cpu *hw.CPU, p *mk.Process) (int, error) {
	var idx int
	err := cpu.VMCall(func(*hw.CPU) error {
		rk.ensureProc(p)
		if rk.nextIndex >= MaxVirtualServers {
			return fmt.Errorf("hv: virtual server space exhausted (%d)", rk.nextIndex-1)
		}
		idx = rk.nextIndex
		rk.nextIndex++
		return nil
	})
	return idx, err
}

// Bind binds client to the server with global EPTP index index, by
// hypercall from the given core, and reports how many EPT table pages the
// remap touched.
func (rk *Rootkernel) Bind(cpu *hw.CPU, client, server *mk.Process, index int) (int, error) {
	var pages int
	err := cpu.VMCall(func(*hw.CPU) (err error) {
		pages, err = rk.bind(client, server, index)
		return err
	})
	return pages, err
}

// bind creates the server-view EPT for a client: a shallow clone of the
// base EPT whose only change is remapping the GPA of the *client's* CR3 to
// the HPA of the *server's* page-table root (Figure 6). The binding is
// recorded under the server's virtual ID and eagerly loaded into a
// hardware slot (evicting LRU entries once more than 511 servers are
// bound, §10).
func (rk *Rootkernel) bind(client, server *mk.Process, index int) (int, error) {
	if index <= 0 || index >= MaxVirtualServers {
		return 0, fmt.Errorf("hv: bind with invalid index %d", index)
	}
	cps := rk.ensureProc(client)
	sps := rk.ensureProc(server)

	// Under the identity base EPT the server's page-table root frame is at
	// HPA == GPA.
	eptS := rk.BaseEPT.CloneShallow()
	copied, err := eptS.RemapGPA(client.PT.Root.PageBase(), hw.HPA(server.PT.Root), hw.EPTRead|hw.EPTWrite)
	if err != nil {
		return 0, err
	}
	// The server view also carries the server's identity page, so a kernel
	// entry while the thread executes server code attributes correctly.
	if _, err := eptS.RemapGPA(rk.IdentityGPA(), sps.identityFrame, hw.EPTRead|hw.EPTWrite); err != nil {
		return 0, err
	}
	cps.bindings[index] = eptS
	rk.Bindings++
	rk.haveBindings = true
	// Eagerly load the binding into a hardware slot.
	if _, err := rk.loadSlot(nil, client, index, nil); err != nil {
		return 0, err
	}
	// Reinstall the list on any core currently running this client (we
	// are in root mode handling the hypercall, so a direct install is
	// legal). The slot load is already visible there; the install resets
	// the active EPT to slot 0 and is counted and traced.
	for _, cpu := range rk.Mach.Cores {
		if rk.installed[cpu.ID] == client {
			rk.installList(cpu, client)
		}
	}
	return copied + 1, nil // + the cloned root
}

// installList points the core's VMCS at a process's EPTP list and makes
// slot 0 (the process's own view) the active EPT.
func (rk *Rootkernel) installList(cpu *hw.CPU, p *mk.Process) {
	ps := rk.ensureProc(p)
	cpu.VMCS.EPTPList = &ps.list
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

// InstallFor installs a process's EPTP list on a core by hypercall. The
// SkyBridge registration path calls this so a freshly bound process can
// VMFUNC without waiting for its next context switch.
func (rk *Rootkernel) InstallFor(cpu *hw.CPU, p *mk.Process) error {
	return cpu.VMCall(func(cpu *hw.CPU) error {
		rk.installList(cpu, p)
		return nil
	})
}
