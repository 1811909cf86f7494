package hw

// Cycle costs of the architectural operations the simulator charges.
// The measured values come from the paper's Skylake i7-6700K (Table 2 and
// §2.1.1); CostVMExit is not reported by the paper and is set to a value
// consistent with published Skylake VM-exit round-trip measurements.
const (
	// CostSYSCALL is the cost of the SYSCALL instruction (§2.1.1).
	CostSYSCALL uint64 = 82
	// CostSWAPGS is the cost of one SWAPGS (§2.1.1).
	CostSWAPGS uint64 = 26
	// CostSYSRET is the cost of the SYSRET instruction (§2.1.1).
	CostSYSRET uint64 = 75
	// CostWriteCR3 is the cost of a CR3 write with PCID enabled (Table 2).
	CostWriteCR3 uint64 = 186
	// CostVMFUNC is the cost of VMFUNC EPTP switching with VPID enabled,
	// which does not flush the TLB (Table 2).
	CostVMFUNC uint64 = 134
	// CostIPI is the cost of delivering one inter-processor interrupt
	// (§2.1.3).
	CostIPI uint64 = 1913
	// CostVMExit is the round-trip cost of a VM exit plus VM entry. The
	// paper eliminates these entirely (Table 5 reports zero exits), so
	// this constant only matters for the trap-everything ablation.
	CostVMExit uint64 = 1500
	// CostInterrupt is the cost of delivering and dispatching a local
	// interrupt (vector through IDT, no VM exit).
	CostInterrupt uint64 = 600

	// ClockHz is the nominal clock used to convert simulated cycles to
	// seconds for throughput reporting (the paper's machine is a 4.0 GHz
	// i7-6700K).
	ClockHz = 4_000_000_000
)

// Cache hierarchy latencies and geometry (Skylake-like, the paper's
// i7-6700K testbed). Only the D-TLB size is a MachineConfig field.
const (
	L1Latency  uint64 = 4
	L2Latency  uint64 = 12
	L3Latency  uint64 = 42
	MemLatency uint64 = 200

	L1ISize = 32 << 10
	L1DSize = 32 << 10
	L2Size  = 256 << 10
	L3Size  = 8 << 20

	ITLBEntries        = 128
	DefaultDTLBEntries = 64
)
