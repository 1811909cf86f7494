package hw

import (
	"encoding/binary"
	"fmt"

	"skybridge/internal/obs"
)

// Mode is the CPU privilege mode (the x86 ring, collapsed to the two levels
// that matter here).
type Mode int

// Privilege modes.
const (
	ModeUser   Mode = iota // ring 3
	ModeKernel             // ring 0
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeUser {
		return "user"
	}
	return "kernel"
}

// PageFault is a guest page-table translation failure, delivered to the
// (Sub)kernel like a #PF exception.
type PageFault struct {
	VA     VA
	Access Access
	Mode   Mode
}

// Error implements the error interface.
func (f *PageFault) Error() string {
	return fmt.Sprintf("page fault: %s of va %#x in %s mode", f.Access, uint64(f.VA), f.Mode)
}

// CPUCounters are the per-core event counters an experiment can sample,
// standing in for the Intel PMU the paper uses for Table 1.
type CPUCounters struct {
	Instructions uint64 // explicit Compute/instruction charges
	DataAccesses uint64
	CodeFetches  uint64
	PageWalks    uint64 // guest page-table walks (TLB misses serviced)
	EPTWalkReads uint64 // EPT entry reads performed during walks
	Syscalls     uint64
	VMFuncs      uint64
}

// CPU is one simulated core. All operations advance Clock by their cycle
// cost; memory operations additionally move data and update the cache/TLB
// models.
type CPU struct {
	ID   int
	mach *Machine

	// Clock is the core-local cycle counter (the simulated TSC).
	Clock uint64

	Mode Mode
	CR3  GPA
	// PCID tags TLB entries per address space, so CR3 writes do not flush
	// (the paper measures the 186-cycle switch "with PCID enabled").
	PCID uint16
	// VPID tags TLB entries per virtual CPU so VMFUNC does not flush.
	VPID uint16

	// NonRoot is true once the Rootkernel has downgraded this core to
	// VMX non-root mode. VMFUNC is only legal in non-root mode.
	NonRoot bool
	VMCS    *VMCS
	ept     *EPT // active EPT; nil when running natively or in root mode

	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB

	Counters CPUCounters

	// Trace is this core's trace track; nil disables tracing. Event
	// recording only reads Clock — it never advances it and never touches
	// the cache/TLB models, so tracing cannot perturb measured cycles.
	Trace *obs.CoreTrace

	// FlowID, when nonzero, tags charged crossing operations (SendIPI,
	// hypervisor EPTP installs) with a causal-flow step so the trace can
	// stitch one call's journey across cores. Host-side annotation only:
	// it is written around instrumented regions, read only when Trace is
	// attached, and never observable to simulated code.
	FlowID uint64

	// Host-side scratch state (never observable in the simulation).
	// eptTrace is the reused EPT walk-trace buffer.
	eptTrace []HPA
}

// Machine returns the machine this core belongs to.
func (c *CPU) Machine() *Machine { return c.mach }

// EPT returns the currently active EPT (nil when running natively).
func (c *CPU) EPT() *EPT { return c.ept }

// SetEPT installs an EPT directly. Only the Rootkernel (root mode) may do
// this; guests must go through VMFunc.
func (c *CPU) SetEPT(e *EPT) { c.ept = e }

// Tick advances the core clock by n cycles of pure computation.
func (c *CPU) Tick(n uint64) {
	c.Clock += n
	c.Counters.Instructions += n
}

// tlbTag returns the tag new TLB entries are filled with in the current
// translation context.
func (c *CPU) tlbTag() TLBTag {
	tag := TLBTag{VPID: c.VPID, PCID: c.PCID}
	if c.ept != nil {
		tag.EPTP = c.ept.Root
	}
	return tag
}

// resolveGPA translates a guest-physical address to host-physical, charging
// one L1D access per EPT entry read.
func (c *CPU) resolveGPA(g GPA, acc Access) (HPA, error) {
	if c.ept == nil {
		if uint64(g) >= c.mach.Mem.Size() {
			return 0, &EPTViolation{GPA: g, Access: acc, Level: 4}
		}
		return HPA(g), nil
	}
	hpa, trace, v := c.ept.TranslateInto(g, acc, c.eptTrace[:0])
	c.eptTrace = trace[:0] // keep the (possibly grown) buffer for reuse
	for _, slot := range trace {
		c.Clock += c.L1D.Access(slot, false)
		c.Counters.EPTWalkReads++
	}
	if v != nil {
		return 0, c.mach.deliverExit(c, &VMExit{Reason: ExitEPTViolation, Violation: v})
	}
	return hpa, nil
}

// walkGuest performs a full two-dimensional page walk for va: four guest
// page-table levels, each entry read through the EPT, charging cache
// accesses for every entry touched. On success it returns the host-physical
// address of the page and the guest leaf flags, and fills the TLB.
func (c *CPU) walkGuest(va VA, acc Access, tlb *TLB) (HPA, PTFlags, error) {
	c.Counters.PageWalks++
	table := GPA(c.CR3)
	for level := 4; level > 1; level-- {
		entryGPA := table + GPA(8*va.Index(level))
		entryHPA, err := c.resolveGPA(entryGPA, AccessRead)
		if err != nil {
			return 0, 0, err
		}
		c.Clock += c.L1D.Access(entryHPA, false)
		e := c.mach.Mem.ReadU64(entryHPA)
		if PTFlags(e)&PTEPresent == 0 {
			return 0, 0, &PageFault{VA: va, Access: acc, Mode: c.Mode}
		}
		table = GPA(e & pteAddrMask)
	}
	entryGPA := table + GPA(8*va.Index(1))
	entryHPA, err := c.resolveGPA(entryGPA, AccessRead)
	if err != nil {
		return 0, 0, err
	}
	c.Clock += c.L1D.Access(entryHPA, false)
	e := c.mach.Mem.ReadU64(entryHPA)
	flags := PTFlags(e) &^ PTFlags(pteAddrMask)
	if flags&PTEPresent == 0 {
		return 0, 0, &PageFault{VA: va, Access: acc, Mode: c.Mode}
	}
	if err := checkPTPerms(flags, acc, c.Mode, va); err != nil {
		return 0, 0, err
	}
	// Translate the data page itself through the EPT to get the frame.
	pageHPA, err := c.resolveGPA(GPA(e&pteAddrMask), acc)
	if err != nil {
		return 0, 0, err
	}
	tlb.Insert(c.tlbTag(), va.PageNum(), pageHPA.PageBase(), flags)
	return pageHPA.PageBase(), flags, nil
}

func checkPTPerms(flags PTFlags, acc Access, mode Mode, va VA) error {
	if mode == ModeUser && flags&PTEUser == 0 {
		return &PageFault{VA: va, Access: acc, Mode: mode}
	}
	if acc == AccessWrite && flags&PTEWrite == 0 {
		return &PageFault{VA: va, Access: acc, Mode: mode}
	}
	if acc == AccessExec && flags&PTENX != 0 {
		return &PageFault{VA: va, Access: acc, Mode: mode}
	}
	return nil
}

// translate resolves va for the given access kind through the chosen TLB,
// falling back to a charged page walk on a miss.
func (c *CPU) translate(va VA, acc Access, tlb *TLB) (HPA, error) {
	if pfn, flags, ok := tlb.Lookup(c.tlbTag(), va.PageNum()); ok {
		if err := checkPTPerms(flags, acc, c.Mode, va); err == nil {
			return pfn + HPA(va.PageOff()), nil
		}
		// Permission mismatch: fall through to a full walk, which will
		// raise the authoritative fault.
	}
	base, _, err := c.walkGuest(va, acc, tlb)
	if err != nil {
		return 0, err
	}
	return base + HPA(va.PageOff()), nil
}

// ReadData performs a charged data read of n bytes at va into buf (buf may
// be nil to model the access without observing the data).
func (c *CPU) ReadData(va VA, buf []byte, n int) error {
	return c.accessData(va, buf, n, AccessRead)
}

// ReadRepeat charges exactly what reps calls of ReadData(v, nil, 1) on each
// byte v of [va, va+n), in ascending order, would charge, and returns the
// fault the first failing one would: a bitmap scan that tests each bit
// with its own one-byte load is such a run. The first read on each cache
// line goes through accessData. Once an access succeeds, its translation
// and its line stay resident until the next access, so the rest of that
// line's reads are D-TLB and L1D hits, applied in bulk.
func (c *CPU) ReadRepeat(va VA, n, reps int) error {
	if reps <= 0 {
		return nil
	}
	for end := va + VA(n); va < end; {
		next := min(end, (va|(LineSize-1))+1)
		if err := c.accessData(va, nil, 1, AccessRead); err != nil {
			return err
		}
		if k := uint64(next-va)*uint64(reps) - 1; k > 0 {
			pfn, flags, ok := c.DTLB.lookupRepeat(c.tlbTag(), va.PageNum(), k)
			if !ok || checkPTPerms(flags, AccessRead, c.Mode, va) != nil {
				panic(fmt.Sprintf("hw: translation of %#x not resident after its own access", uint64(va)))
			}
			c.Clock += c.L1D.accessRepeat(pfn+HPA(va.PageOff()), k)
			c.Counters.DataAccesses += k
		}
		va = next
	}
	return nil
}

// WriteData performs a charged data write of n bytes at va from buf (buf
// may be nil to model the access pattern only; the memory is then zeroed).
func (c *CPU) WriteData(va VA, buf []byte, n int) error {
	return c.accessData(va, buf, n, AccessWrite)
}

// LoadU64 is ReadData of the 8 bytes at va, decoded little-endian; it
// returns 0 with the error of a faulting read. An aligned word lies in one
// cache line of one page, so it charges what ReadData charges for it (one
// translation, one L1D access, one data access) and reads the word with
// one PhysMem.ReadU64 instead of a byte copy. An unaligned word goes
// through ReadData's own path.
func (c *CPU) LoadU64(va VA) (uint64, error) {
	if va&7 != 0 {
		var b [8]byte
		if err := c.accessData(va, b[:], 8, AccessRead); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	hpa, err := c.translate(va, AccessRead, c.DTLB)
	if err != nil {
		return 0, err
	}
	c.Clock += c.L1D.Access(hpa, false)
	c.Counters.DataAccesses++
	return c.mach.Mem.ReadU64(hpa), nil
}

// StoreU64 is WriteData of v's 8 little-endian bytes at va, charged as
// LoadU64 charges a read.
func (c *CPU) StoreU64(va VA, v uint64) error {
	if va&7 != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return c.accessData(va, b[:], 8, AccessWrite)
	}
	hpa, err := c.translate(va, AccessWrite, c.DTLB)
	if err != nil {
		return err
	}
	c.Clock += c.L1D.Access(hpa, true)
	c.Counters.DataAccesses++
	c.mach.Mem.WriteU64(hpa, v)
	return nil
}

func (c *CPU) accessData(va VA, buf []byte, n int, acc Access) error {
	off := 0
	for off < n {
		// Length remaining within this page.
		chunk := int(PageSize - (va + VA(off)).PageOff())
		if chunk > n-off {
			chunk = n - off
		}
		hpa, err := c.translate(va+VA(off), acc, c.DTLB)
		if err != nil {
			return err
		}
		// Charge one cache access per line spanned.
		lines := chunkLines(hpa, chunk)
		c.Clock += c.L1D.AccessRange(hpa, lines, acc == AccessWrite)
		c.Counters.DataAccesses += uint64(lines)
		switch acc {
		case AccessRead:
			if buf != nil {
				c.mach.Mem.Read(hpa, buf[off:off+chunk])
			}
		case AccessWrite:
			if buf != nil {
				c.mach.Mem.Write(hpa, buf[off:off+chunk])
			} else {
				c.mach.Mem.Write(hpa, zeroPage[:chunk])
			}
		}
		off += chunk
	}
	return nil
}

// zeroPage backs nil-buffer modeled writes; it is only ever read from.
var zeroPage [PageSize]byte

// chunkLines returns the number of cache lines the n bytes at hpa span.
func chunkLines(hpa HPA, n int) int {
	return int(((hpa+HPA(n)-1).LineBase()-hpa.LineBase())>>LineShift) + 1
}

// FetchCode performs a charged instruction fetch of n bytes at va through
// the instruction TLB and L1I, returning the bytes (for the decoder).
func (c *CPU) FetchCode(va VA, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := c.fetchCode(va, n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// TouchCode models execution of code spanning [va, va+n) without decoding
// it: it charges instruction fetches line by line. Kernels use this to
// model the i-cache footprint of their IPC paths.
func (c *CPU) TouchCode(va VA, n int) error {
	return c.fetchCode(va, n, nil)
}

// fetchCode charges an instruction fetch of n bytes at va; with a non-nil
// buf it also copies the bytes out. The copy is host-side only, so a nil
// buf (TouchCode) charges identically.
func (c *CPU) fetchCode(va VA, n int, buf []byte) error {
	off := 0
	for off < n {
		chunk := int(PageSize - (va + VA(off)).PageOff())
		if chunk > n-off {
			chunk = n - off
		}
		hpa, err := c.translate(va+VA(off), AccessExec, c.ITLB)
		if err != nil {
			return err
		}
		lines := chunkLines(hpa, chunk)
		c.Clock += c.L1I.AccessRange(hpa, lines, false)
		c.Counters.CodeFetches += uint64(lines)
		if buf != nil {
			c.mach.Mem.Read(hpa, buf[off:off+chunk])
		}
		off += chunk
	}
	return nil
}

// Syscall charges the SYSCALL instruction and enters kernel mode.
func (c *CPU) Syscall() {
	c.Clock += CostSYSCALL
	c.Counters.Syscalls++
	c.Mode = ModeKernel
	if c.Trace != nil {
		c.Trace.Complete(c.Clock-CostSYSCALL, CostSYSCALL, "SYSCALL", "hw")
	}
}

// Sysret charges the SYSRET instruction and returns to user mode.
func (c *CPU) Sysret() {
	c.Clock += CostSYSRET
	c.Mode = ModeUser
	if c.Trace != nil {
		c.Trace.Complete(c.Clock-CostSYSRET, CostSYSRET, "SYSRET", "hw")
	}
}

// Swapgs charges one SWAPGS instruction.
func (c *CPU) Swapgs() {
	c.Clock += CostSWAPGS
}

// WriteCR3 installs a new page-table root. With PCID enabled (always, in
// this model) the TLB is not flushed; entries are distinguished by tag.
func (c *CPU) WriteCR3(root GPA, pcid uint16) error {
	if c.Mode != ModeKernel {
		return fmt.Errorf("hw: CR3 write in user mode (#GP)")
	}
	c.Clock += CostWriteCR3
	if c.Trace != nil {
		c.Trace.Complete(c.Clock-CostWriteCR3, CostWriteCR3, "WriteCR3", "hw",
			obs.U("pcid", uint64(pcid)))
	}
	if c.NonRoot && c.VMCS != nil && c.VMCS.Controls.ExitOnCR3Write {
		if err := c.mach.deliverExit(c, &VMExit{Reason: ExitCR3Write}); err != nil {
			return err
		}
	}
	c.CR3 = root
	c.PCID = pcid
	return nil
}

// VMFunc executes VMFUNC(fn, index): EPTP switching when fn == 0. It is
// legal from both user and kernel mode in non-root operation, costs 134
// cycles, and — with VPID enabled — flushes nothing. Selecting an invalid
// index or an empty EPTP slot raises a VM exit, so a malicious index cannot
// escape the configured list.
func (c *CPU) VMFunc(fn int, index int) error {
	c.Clock += CostVMFUNC
	c.Counters.VMFuncs++
	if c.Trace != nil {
		c.Trace.Complete(c.Clock-CostVMFUNC, CostVMFUNC, "VMFUNC", "hw",
			obs.U("fn", uint64(fn)), obs.U("index", uint64(index)))
	}
	if !c.NonRoot {
		return fmt.Errorf("hw: VMFUNC outside VMX non-root mode (#UD)")
	}
	if fn != 0 {
		return c.mach.deliverExit(c, &VMExit{Reason: ExitVMFuncFail, Index: index})
	}
	if index < 0 || index >= EPTPListSize || c.VMCS.EPTPList[index] == nil {
		return c.mach.deliverExit(c, &VMExit{Reason: ExitVMFuncFail, Index: index})
	}
	c.ept = c.VMCS.EPTPList[index]
	return nil
}

// CPUID executes the CPUID instruction, which unconditionally exits in
// non-root mode.
func (c *CPU) CPUID() error {
	c.Tick(30)
	if c.NonRoot {
		return c.mach.deliverExit(c, &VMExit{Reason: ExitCPUID})
	}
	return nil
}

// VMCall issues a hypercall to the Rootkernel: a VM exit whose handler
// runs call in root mode. It returns the exit's or the call's error.
func (c *CPU) VMCall(call Hypercall) error {
	if !c.NonRoot {
		return fmt.Errorf("hw: VMCALL outside VMX non-root mode")
	}
	return c.mach.deliverExit(c, &VMExit{Reason: ExitVMCall, Hypercall: call})
}

// Interrupt models delivery of a local external interrupt. Under
// SkyBridge's exit-less configuration interrupts vector directly to the
// non-root kernel; a trap-everything hypervisor takes a VM exit first.
func (c *CPU) Interrupt() error {
	c.Clock += CostInterrupt
	c.Mode = ModeKernel
	if c.NonRoot && c.VMCS != nil && c.VMCS.Controls.ExitOnExternalIntr {
		return c.mach.deliverExit(c, &VMExit{Reason: ExitExternalInterrupt})
	}
	return nil
}
