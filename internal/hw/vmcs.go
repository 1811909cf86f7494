package hw

import "fmt"

// EPTPListSize is the hardware limit on EPTP-list entries reachable by
// VMFUNC EPTP switching (Intel SDM: the EPTP list is one 4 KiB page of
// 512 8-byte pointers).
const EPTPListSize = 512

// ExitReason classifies VM exits, mirroring the subset of Intel exit
// reasons the Rootkernel must handle (§4.1: CPUID, VMCALL, EPT violation)
// plus the ones the exit-less configuration avoids.
type ExitReason int

// VM exit reasons.
const (
	ExitCPUID ExitReason = iota
	ExitVMCall
	ExitEPTViolation
	ExitExternalInterrupt
	ExitHLT
	ExitCR3Write
	ExitVMFuncFail
)

// String implements fmt.Stringer.
func (r ExitReason) String() string {
	switch r {
	case ExitCPUID:
		return "CPUID"
	case ExitVMCall:
		return "VMCALL"
	case ExitEPTViolation:
		return "EPT_VIOLATION"
	case ExitExternalInterrupt:
		return "EXTERNAL_INTERRUPT"
	case ExitHLT:
		return "HLT"
	case ExitCR3Write:
		return "CR3_WRITE"
	case ExitVMFuncFail:
		return "VMFUNC_FAIL"
	default:
		return fmt.Sprintf("ExitReason(%d)", int(r))
	}
}

// VMExit is delivered to the Machine's exit handler (the Rootkernel) when a
// non-root operation requires hypervisor intervention.
type VMExit struct {
	Reason    ExitReason
	Violation *EPTViolation // set for ExitEPTViolation
	Hypercall Hypercall     // set for ExitVMCall
	Index     int           // set for ExitVMFuncFail: the offending EPTP index
}

// Error implements the error interface so exits can propagate through the
// memory-access paths.
func (e *VMExit) Error() string { return "vm exit: " + e.Reason.String() }

// Hypercall is a VMCALL's root-mode work: the Subkernel -> Rootkernel
// interface. A real hypercall marshals its arguments through guest
// memory; the simulator hands the exit handler the work itself, which it
// runs after the VM exit has been charged.
type Hypercall func(c *CPU) error

// VMExitControls selects which events leave non-root mode. SkyBridge's
// Rootkernel clears everything clearable so that "there are no VM exits
// when running normal applications" (§4.1); the trap-everything settings
// exist for the legacy-hypervisor ablation.
type VMExitControls struct {
	ExitOnCPUID        bool // CPUID always exits on real hardware
	ExitOnHLT          bool
	ExitOnCR3Write     bool
	ExitOnExternalIntr bool
}

// VMCS models the per-virtual-CPU control structure: the address of the
// EPTP list consulted by VMFUNC, and the exit controls.
type VMCS struct {
	Controls VMExitControls

	// EPTPList points at the 512-entry list VMFUNC(0, idx) selects from;
	// installing a list is one write of this pointer, and a write to an
	// entry is seen by every core pointing at the list. A nil entry is
	// invalid and causes a VM exit if selected.
	EPTPList *[EPTPListSize]*EPT
}
