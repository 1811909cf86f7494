package core

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// trampEntryVA/trampReturnVA are the fetch targets charged during a call.
const (
	trampEntryLen  = 64
	trampReturnVA  = TrampolineVA + 0x80
	trampReturnLen = 48
)

// DirectCall implements direct_server_call: the client's thread executes
// the server's handler in the server's address space with no kernel
// involvement. Round-trip direct cost is ~396 cycles warm (2x VMFUNC plus
// ~64 cycles/leg of register save/restore and stack installation, §6.3).
func (sb *SkyBridge) DirectCall(env *mk.Env, serverID int, req Request) (Response, error) {
	return sb.call(env, serverID, req, 0, 0, false)
}

// DirectCallTimeout is DirectCall with the §7 DoS defense: if the server
// exceeds the cycle budget, control is forced back to the client with
// ErrTimeout.
func (sb *SkyBridge) DirectCallTimeout(env *mk.Env, serverID int, req Request, timeout uint64) (Response, error) {
	return sb.call(env, serverID, req, timeout, 0, false)
}

// DirectCallWithKey lets tests present an arbitrary calling key (modelling
// a malicious client); normal clients always present their issued key.
func (sb *SkyBridge) DirectCallWithKey(env *mk.Env, serverID int, req Request, key uint64) (Response, error) {
	return sb.call(env, serverID, req, 0, key, true)
}

func (sb *SkyBridge) call(env *mk.Env, serverID int, req Request, timeout uint64, forcedKey uint64, useForced bool) (Response, error) {
	cpu := env.T.Core
	conn, ok := sb.bindings[env.P][serverID]
	if !ok {
		return Response{}, ErrNotRegistered
	}
	srv := conn.Server
	env.T.Checkpoint()
	// Restore our address space (and, via the Rootkernel context-switch
	// hook, our EPTP list) if other threads ran on this core meanwhile.
	env.Enter()

	// One span per direct call, with per-phase cycle attribution (the
	// in-trace analogue of the paper's Table 2 breakdown). The phase
	// timestamps are plain Clock reads, so an untraced run is unperturbed.
	tr := cpu.Trace
	span := tr.Begin(cpu.Clock, "skybridge.call", "core")
	t0 := cpu.Clock

	// Deterministic flow ID: the ordinal this call will get on success.
	// Computed only when someone is listening.
	var fid uint64
	if tr != nil || sb.Calls != nil {
		fid = obs.FlowSync | (sb.DirectCalls + 1)
	}
	if tr != nil {
		tr.FlowStart(t0, fid, "flow.call", "flow")
	}

	// --- client-side trampoline ---
	if err := cpu.TouchCode(TrampolineVA, trampEntryLen); err != nil {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return Response{}, fmt.Errorf("core: trampoline fetch: %w", err)
	}
	cpu.Tick(costSaveRegs)
	// Per-call client key (the server must echo it back, §4.4).
	clientKey := sb.rng.Uint64()
	cpu.Tick(6)

	presented := conn.ServerKey
	if useForced {
		presented = forcedKey
	}

	// Long payloads go through the connection's shared buffer: one copy,
	// client side, user mode.
	if req.Len > 0 {
		if req.Len > conn.BufLen {
			tr.End(span, cpu.Clock, obs.U("error", 1))
			return Response{}, fmt.Errorf("core: payload %d exceeds shared buffer %d", req.Len, conn.BufLen)
		}
		if req.Buf != conn.ClientBuf {
			// Copy the caller's internal buffer into the shared buffer;
			// callers that build requests in place skip this copy.
			data := make([]byte, req.Len)
			env.Read(req.Buf, data, req.Len)
			env.Write(conn.ClientBuf, data, req.Len)
		}
	}

	// Resolve the server's hardware EPTP slot in the context process's
	// slot cache (user-level hit; hypercall + possible LRU eviction on a
	// miss — the paper's §10 extension). The active chain's slots are
	// pinned so nested returns always find their EPT resident.
	tc := sb.chain(env)
	sb.ensureContext(cpu, tc)
	cpu.FlowID = fid // tag slot-resolve hypercalls with the call's flow
	slot, _, err := sb.RK.ResolveSlot(cpu, tc.proc, serverID, tc.stack)
	if err != nil {
		cpu.FlowID = 0
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return Response{}, fmt.Errorf("core: slot resolve for server %d: %w", serverID, err)
	}
	tTramp := cpu.Clock

	// --- the EPTP switch ---
	if err := cpu.VMFunc(0, slot); err != nil {
		cpu.FlowID = 0
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return Response{}, fmt.Errorf("core: vmfunc to server %d (slot %d): %w", serverID, slot, err)
	}
	cpu.FlowID = 0
	sb.afterSwitch(cpu)
	senv := tc.push(env, slot, srv.Proc)
	tSwitch := cpu.Clock

	// --- server-side trampoline ---
	cpu.Tick(costInstallStack)
	// Calling-key check against the server's table, read through the
	// server's address space (§4.4: "checks the key against its
	// calling-key table").
	var kb [8]byte
	senv.Read(srv.keyTable+hw.VA(8*conn.slot), kb[:], 8)
	stored := leU64(kb)
	cpu.Tick(4) // compare + branch
	if stored != presented {
		// Deny and notify the Subkernel (§4.4).
		srv.Rejected++
		cpu.Syscall()
		cpu.Swapgs()
		cpu.Tick(50) // kernel logging of the violation
		cpu.Swapgs()
		cpu.Sysret()
		sb.switchBack(env, tc)
		tr.End(span, cpu.Clock, obs.U("bad_key", 1))
		return Response{}, ErrBadKey
	}

	// --- invoke the registered handler on the caller's thread ---
	srv.Calls++
	req.SharedBuf = conn.ServerBuf
	start := cpu.Clock
	resp := srv.Handler(senv, req)

	if timeout > 0 && cpu.Clock-start > timeout {
		// Forced return (§7): the control flow comes back to the client.
		sb.switchBack(env, tc)
		tr.End(span, cpu.Clock, obs.U("timeout", 1))
		return Response{}, ErrTimeout
	}
	tServer := cpu.Clock

	// --- return thunk ---
	if err := cpu.TouchCode(trampReturnVA, trampReturnLen); err != nil {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return Response{}, fmt.Errorf("core: return thunk fetch: %w", err)
	}
	cpu.Tick(costRestoreRegs)
	sb.switchBack(env, tc)

	// Client re-checks the echoed client key ("the receiver should return
	// this key to the sender, which rechecks it").
	echoed := clientKey // the simulated trampoline echoes it in a register
	cpu.Tick(6)
	if echoed != clientKey {
		tr.End(span, cpu.Clock, obs.U("error", 1))
		return Response{}, ErrReturnKey
	}
	sb.DirectCalls++
	if tr != nil {
		tr.Complete(t0, tTramp-t0, "phase.trampoline", "core")
		tr.Complete(tTramp, tSwitch-tTramp, "phase.vmfunc", "core")
		tr.Complete(tSwitch, tServer-tSwitch, "phase.server", "core")
		tr.Complete(tServer, cpu.Clock-tServer, "phase.return", "core")
		tr.FlowEnd(cpu.Clock, fid, "flow.call", "flow")
		tr.End(span, cpu.Clock,
			obs.U("server", uint64(serverID)),
			obs.U("trampoline", tTramp-t0),
			obs.U("vmfunc", tSwitch-tTramp),
			obs.U("server_cycles", tServer-tSwitch),
			obs.U("return", cpu.Clock-tServer))
	}
	if o := sb.Calls; o != nil {
		// Exact partition of [t0, now): the handler's cycles are service,
		// everything else on the round trip is crossing work.
		end := cpu.Clock
		rec := &sb.rec
		*rec = obs.CallRecord{
			Flow: fid, Kind: obs.CallSync, Seq: sb.DirectCalls,
			Server: serverID, Start: t0, End: end,
		}
		rec.Phases[obs.PhaseService] = tServer - tSwitch
		rec.Phases[obs.PhaseCrossing] = (end - t0) - (tServer - tSwitch)
		o.Observe(rec)
	}
	return resp, nil
}

// switchBack VMFUNCs to the caller's previous EPTP slot and pops the call
// chain; popping the last server slot closes the chain.
func (sb *SkyBridge) switchBack(env *mk.Env, tc *threadCtx) {
	cpu := env.T.Core
	sb.ensureContext(cpu, tc)
	prev := tc.stack[len(tc.stack)-2]
	if err := cpu.VMFunc(0, prev); err != nil {
		panic(fmt.Sprintf("core: vmfunc back to slot %d: %v", prev, err))
	}
	sb.afterSwitch(cpu)
	tc.stack = tc.stack[:len(tc.stack)-1]
}

// ensureContext restores the chain's context process on the core before a
// VMFUNC. A handler running under a direct call can park (server-side
// locks, condition waits); threads of other processes may run on the core
// meanwhile, installing *their* CR3 and EPTP lists. The resumed chain
// resolves slots against its context process's list, and every server
// view's CR3 remap is keyed on the context process's CR3 GPA — so a stale
// context would make the switch target nil (VMFUNC_FAIL) or translate
// through the wrong page table. The restore is the ordinary reschedule
// context switch, issued lazily at the resumed thread's next crossing;
// when the context is still resident this is a pointer compare.
func (sb *SkyBridge) ensureContext(cpu *hw.CPU, tc *threadCtx) {
	sb.K.EnsureOn(cpu, tc.proc)
}

// afterSwitch applies the no-VPID ablation: flush both TLBs on every EPTP
// switch, as hardware without VPID tagging would.
func (sb *SkyBridge) afterSwitch(cpu *hw.CPU) {
	if sb.FlushTLBOnSwitch {
		cpu.ITLB.FlushAll()
		cpu.DTLB.FlushAll()
	}
}

// ReadReply copies a long reply out of the connection's shared buffer into
// buf (client side, charged).
func (conn *Connection) ReadReply(env *mk.Env, buf []byte, n int) {
	env.Read(conn.ClientBuf, buf, n)
}

// WriteRequest writes payload bytes directly into the shared buffer
// (clients that build their request in place skip the trampoline copy).
func (conn *Connection) WriteRequest(env *mk.Env, data []byte) {
	env.Write(conn.ClientBuf, data, len(data))
}

func leU64(b [8]byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
