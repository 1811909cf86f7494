package hw

import (
	"fmt"

	"skybridge/internal/obs"
)

// MachineConfig sizes a simulated machine. Zero fields take defaults
// matching the paper's i7-6700K testbed; the cache hierarchy is fixed
// (costs.go).
type MachineConfig struct {
	Cores    int
	MemBytes uint64
	// DTLBEntries sizes each core's D-TLB (tests shrink it to force
	// TLB churn).
	DTLBEntries int
}

func (c *MachineConfig) applyDefaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.MemBytes == 0 {
		c.MemBytes = 16 << 30
	}
	if c.DTLBEntries == 0 {
		c.DTLBEntries = DefaultDTLBEntries
	}
}

// ExitHandler is the Rootkernel's entry point for VM exits. It runs in root
// mode on the exiting core. Returning a non-nil error aborts the faulting
// operation (the simulator's analogue of killing the guest).
type ExitHandler func(c *CPU, exit *VMExit) error

// Machine is a multicore simulated machine: shared physical memory, a
// shared L3, per-core private L1/L2 caches and TLBs.
type Machine struct {
	Config MachineConfig
	Mem    *PhysMem
	Cores  []*CPU
	L3     *Cache

	exitHandler ExitHandler

	// Obs is the machine's metric registry. Every cache, TLB, and CPU
	// counter is bound into it at construction; kernels and the hypervisor
	// bind their own counters into the same registry at boot.
	Obs *obs.Registry

	// Counters.
	VMExits  map[ExitReason]uint64
	IPICount uint64
}

// NewMachine builds a machine from cfg (zero-value fields defaulted).
// MemBytes must be below 2^38, the most the cache tags can address.
func NewMachine(cfg MachineConfig) *Machine {
	cfg.applyDefaults()
	if cfg.MemBytes >= maxMemBytes {
		panic(fmt.Sprintf("hw: physical memory size %#x is not below the cache tags' limit %#x", cfg.MemBytes, uint64(maxMemBytes)))
	}
	m := &Machine{
		Config:  cfg,
		Mem:     NewPhysMem(cfg.MemBytes),
		Obs:     obs.NewRegistry(),
		VMExits: make(map[ExitReason]uint64),
	}
	m.L3 = NewCache(CacheConfig{Name: "L3", Size: L3Size, Ways: 16, Latency: L3Latency}, nil, MemLatency)
	m.L3.BindObs(m.Obs)
	for i := 0; i < cfg.Cores; i++ {
		l2 := NewCache(CacheConfig{Name: fmt.Sprintf("cpu%d.L2", i), Size: L2Size, Ways: 4, Latency: L2Latency}, m.L3, 0)
		cpu := &CPU{
			ID:   i,
			mach: m,
			Mode: ModeKernel,
			VPID: uint16(i + 1),
			L1I:  NewCache(CacheConfig{Name: fmt.Sprintf("cpu%d.L1I", i), Size: L1ISize, Ways: 8, Latency: L1Latency}, l2, 0),
			L1D:  NewCache(CacheConfig{Name: fmt.Sprintf("cpu%d.L1D", i), Size: L1DSize, Ways: 8, Latency: L1Latency}, l2, 0),
			L2:   l2,
			ITLB: NewTLB(ITLBEntries),
			DTLB: NewTLB(cfg.DTLBEntries),
		}
		m.Cores = append(m.Cores, cpu)

		prefix := fmt.Sprintf("cpu%d", i)
		cpu.L1I.BindObs(m.Obs)
		cpu.L1D.BindObs(m.Obs)
		cpu.L2.BindObs(m.Obs)
		cpu.ITLB.BindObs(m.Obs, prefix+".ITLB")
		cpu.DTLB.BindObs(m.Obs, prefix+".DTLB")
		m.Obs.Bind(prefix+".instructions", &cpu.Counters.Instructions)
		m.Obs.Bind(prefix+".data_accesses", &cpu.Counters.DataAccesses)
		m.Obs.Bind(prefix+".code_fetches", &cpu.Counters.CodeFetches)
		m.Obs.Bind(prefix+".page_walks", &cpu.Counters.PageWalks)
		m.Obs.Bind(prefix+".ept_walk_reads", &cpu.Counters.EPTWalkReads)
		m.Obs.Bind(prefix+".syscalls", &cpu.Counters.Syscalls)
		m.Obs.Bind(prefix+".vmfuncs", &cpu.Counters.VMFuncs)
	}
	m.Obs.Bind("machine.ipis", &m.IPICount)
	return m
}

// AttachTrace creates one trace process (named label) for this machine and
// wires one track per core into the CPUs. Passing a nil tracer detaches.
func (m *Machine) AttachTrace(t *obs.Tracer, label string) {
	if t == nil {
		for _, c := range m.Cores {
			c.Trace = nil
		}
		return
	}
	pt := t.Process(label, len(m.Cores))
	for i, c := range m.Cores {
		c.Trace = pt.Core(i)
	}
}

// SetExitHandler installs the Rootkernel's VM-exit handler.
func (m *Machine) SetExitHandler(h ExitHandler) { m.exitHandler = h }

// deliverExit charges the exit cost, counts it, and runs the handler.
func (m *Machine) deliverExit(c *CPU, exit *VMExit) error {
	c.Clock += CostVMExit
	m.VMExits[exit.Reason]++
	if c.Trace != nil {
		c.Trace.Complete(c.Clock-CostVMExit, CostVMExit, "vmexit:"+exit.Reason.String(), "hw")
	}
	if m.exitHandler == nil {
		return fmt.Errorf("hw: unhandled %v (no hypervisor installed)", exit)
	}
	return m.exitHandler(c, exit)
}

// TotalVMExits sums exits across all reasons.
func (m *Machine) TotalVMExits() uint64 {
	var n uint64
	for _, v := range m.VMExits {
		n += v
	}
	return n
}

// ResetVMExitCounts zeroes the exit counters (e.g. after boot, so Table 5
// measures steady-state exits only).
func (m *Machine) ResetVMExitCounts() { clear(m.VMExits) }

// SendIPI charges the inter-processor-interrupt cost to the sending core
// and counts the event. Wakeup semantics live in the discrete-event layer.
func (m *Machine) SendIPI(from, to int) {
	if from < 0 || from >= len(m.Cores) || to < 0 || to >= len(m.Cores) {
		panic(fmt.Sprintf("hw: SendIPI %d -> %d out of range", from, to))
	}
	m.Cores[from].Clock += CostIPI
	m.IPICount++
	if tr := m.Cores[from].Trace; tr != nil {
		tr.Complete(m.Cores[from].Clock-CostIPI, CostIPI, "IPI", "hw", obs.U("to", uint64(to)))
		if fid := m.Cores[from].FlowID; fid != 0 {
			tr.FlowStep(m.Cores[from].Clock-CostIPI, fid, "flow.ipi", "flow")
		}
	}
}

// ResetStats clears every counter registered with the machine's registry —
// caches, TLBs, CPU counters, plus whatever the kernels and hypervisor have
// bound — along with all histograms. Cache/TLB contents are preserved; only
// statistics reset. VMExits is intentionally excluded (ResetVMExitCounts).
func (m *Machine) ResetStats() { m.Obs.ResetAll() }

// AlignClocks advances every core's clock to the furthest-ahead core — a
// barrier before a timed region. Setup phases charge unevenly (boot and
// binding on one core, preloading on others); without the barrier, the
// first cross-core wake of a measured phase makes the lagging thread
// absorb the skew as apparent latency. Call it only between engine runs,
// while no thread is executing.
func (m *Machine) AlignClocks() {
	var max uint64
	for _, c := range m.Cores {
		if c.Clock > max {
			max = c.Clock
		}
	}
	for _, c := range m.Cores {
		c.Clock = max
	}
}
