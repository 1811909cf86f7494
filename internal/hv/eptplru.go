package hv

import (
	"fmt"
	"slices"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// This file implements the paper's §10 future-work item: "since the EPTP
// list can hold at most 512 EPTP entries, we plan to design a technique
// that dynamically evicts the least recently used EPTP entries from the
// EPTP list when the server number is larger than 512."
//
// Design: server IDs become virtual. Each process's hardware EPTP list is a
// 512-slot cache of its (potentially much larger) binding set. The
// SkyBridge user-level library resolves a server ID to a slot before each
// VMFUNC; a resolution miss issues a hypercall, and the Rootkernel loads
// the binding into the least recently loaded slot that is neither slot 0
// (the caller's own view) nor pinned by the active call chain (a nested
// call must be able to VMFUNC back through its ancestors).

// MaxVirtualServers bounds the virtual server ID space (a sanity limit far
// above the hardware's 512).
const MaxVirtualServers = 4096

// slotState tracks one process's hardware EPTP-slot cache.
type slotState struct {
	// slotServer[i] is the virtual server occupying hardware slot i
	// (0 = free; slot 0 is always the process's own view).
	slotServer [hw.EPTPListSize]int
	// serverSlot maps a loaded virtual server to its hardware slot.
	serverSlot map[int]int
	// lastLoad orders slots for LRU eviction.
	lastLoad [hw.EPTPListSize]uint64
	loadSeq  uint64
}

func (ss *slotState) touch(slot int) {
	ss.loadSeq++
	ss.lastLoad[slot] = ss.loadSeq
}

// loadSlot loads proc's binding for serverID into a hardware slot of its
// list in root mode, evicting the least recently loaded slot that is not
// pinned by the caller's active call chain when none is free. Every core
// running proc sees the new entry. cpu is nil for the eager load issued
// from bind (no core context, so no trace).
func (rk *Rootkernel) loadSlot(cpu *hw.CPU, proc *mk.Process, serverID int, pinned []int) (int, error) {
	ps := rk.ensureProc(proc)
	ept, ok := ps.bindings[serverID]
	if !ok {
		return 0, fmt.Errorf("hv: process %s has no binding for server %d", proc.Name, serverID)
	}
	ss := &ps.slots
	rk.SlotLoads++
	if slot, ok := ss.serverSlot[serverID]; ok {
		// Already resident (a rebind): the slot keeps the view it holds.
		ss.touch(slot)
		return slot, nil
	}

	// Pick a free slot, or the LRU unpinned one.
	victim := slices.Index(ss.slotServer[1:], 0) + 1 // 0: none free
	var evicted uint64
	if victim == 0 {
		oldest := ^uint64(0)
		for i := 1; i < hw.EPTPListSize; i++ {
			if ss.lastLoad[i] < oldest && !slices.Contains(pinned, i) {
				oldest, victim = ss.lastLoad[i], i
			}
		}
		if victim == 0 {
			return 0, fmt.Errorf("hv: all EPTP slots pinned; call chain too deep")
		}
		delete(ss.serverSlot, ss.slotServer[victim])
		rk.SlotEvictions++
		evicted = 1
	}
	ss.slotServer[victim] = serverID
	ss.serverSlot[serverID] = victim
	ss.touch(victim)
	ps.list[victim] = ept
	if cpu != nil && cpu.Trace != nil {
		cpu.Trace.Instant(cpu.Clock, "eptp.load_slot", "hv",
			obs.U("server", uint64(serverID)), obs.U("slot", uint64(victim)),
			obs.U("evicted", evicted))
		if fid := cpu.FlowID; fid != 0 {
			cpu.Trace.FlowStep(cpu.Clock, fid, "flow.eptp_load", "flow")
		}
	}
	return victim, nil
}

// ResolveSlot is the Subkernel/user-library entry: return the hardware slot
// for (proc, serverID), loading it by hypercall on a miss. The fast path
// is a user-level lookup with no kernel involvement.
func (rk *Rootkernel) ResolveSlot(cpu *hw.CPU, proc *mk.Process, serverID int, pinned []int) (int, error) {
	ss := &rk.ensureProc(proc).slots
	if slot, ok := ss.serverSlot[serverID]; ok {
		// Resident: the user-level table lookup costs a few cycles.
		cpu.Tick(6)
		ss.touch(slot)
		return slot, nil
	}
	var slot int
	err := cpu.VMCall(func(cpu *hw.CPU) (err error) {
		slot, err = rk.loadSlot(cpu, proc, serverID, pinned)
		return err
	})
	return slot, err
}
