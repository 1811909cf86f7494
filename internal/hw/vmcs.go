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
	Hypercall *Hypercall    // set for ExitVMCall
	Index     int           // set for ExitVMFuncFail: the offending EPTP index
}

// Error implements the error interface so exits can propagate through the
// memory-access paths.
func (e *VMExit) Error() string { return "vm exit: " + e.Reason.String() }

// Hypercall is the VMCALL payload: the Subkernel -> Rootkernel interface.
type Hypercall struct {
	Nr   int
	Args [4]uint64
	// Ptr carries structured arguments. A real hypercall marshals through
	// guest memory; the simulator passes the value directly while still
	// charging the VM-exit cost.
	Ptr any
	// Ret receives the handler's result.
	Ret uint64
	Err error
}

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

// VMCS models the per-virtual-CPU control structure: the EPTP list consulted
// by VMFUNC, the currently installed EPT, and the exit controls.
type VMCS struct {
	Controls VMExitControls

	// EPTPList is the 512-entry list VMFUNC(0, idx) selects from. A nil
	// entry is invalid and causes a VM exit if selected.
	EPTPList [EPTPListSize]*EPT

	// CurrentIndex is the EPTP-list index currently installed.
	CurrentIndex int
}
