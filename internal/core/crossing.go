package core

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// One crossing (§4.4). DirectCall, DirectCallTimeout, DirectCallBatch and
// the async-ring doorbell all reach a server through the same trampoline,
// run in three parts:
//
//   - enter: the trampoline fetch, the register save and the per-crossing
//     client key the server must echo back;
//   - switchIn: the slot resolve, the VMFUNC into the server's view, the
//     stack install, and the calling-key check against the server's table
//     (a wrong key notifies the Subkernel and switches back);
//   - leave: the return thunk, the VMFUNC back and the echoed-key check.
//
// A path stages its payloads between enter and switchIn (the trampoline
// fetch and the staging writes share L2, so that order is charged) and
// does its server-side work between switchIn and leave.

// trampEntryLen/trampReturnVA/trampReturnLen are the fetch targets charged
// during a crossing.
const (
	trampEntryLen  = 64
	trampReturnVA  = TrampolineVA + 0x80
	trampReturnLen = 48
)

// crossing is one trampoline round trip of a client thread over conn.
type crossing struct {
	sb   *SkyBridge
	conn *Connection

	env  *mk.Env // the client's
	cpu  *hw.CPU
	tr   *obs.CoreTrace
	span obs.SpanID
	flow string // flow name ("" when the path starts no flow)
	fid  uint64 // flow ID; tags the slot resolve and the VMFUNC
	key  uint64 // per-crossing client key, echoed back by the server

	tc   *threadCtx
	senv *mk.Env // the server's, after switchIn

	// Phase boundaries: entry, VMFUNC start, VMFUNC end, return thunk.
	t0, tTramp, tSwitch, tServer uint64
}

// enter starts a crossing of env's thread. It syncs the thread with the
// engine and restores its address space (and, via the Rootkernel
// context-switch hook, its EPTP list) if other threads ran on this core
// meanwhile, then opens the span. A call or a batch also starts a flow,
// numbered kind | (*ord + 1): the ordinal the crossing gets on success.
// Last it runs the client side of the trampoline.
func (x *crossing) enter(env *mk.Env, span, flow string, kind uint64, ord *uint64) error {
	env.T.Checkpoint()
	env.Enter()
	cpu := env.T.Core
	x.env, x.cpu, x.tr = env, cpu, cpu.Trace
	x.span = x.tr.Begin(cpu.Clock, span, "core")
	x.t0 = cpu.Clock
	if flow != "" {
		x.flow, x.fid = flow, kind|(*ord+1)
		x.tr.FlowStart(x.t0, x.fid, flow, "flow")
	}
	if err := cpu.TouchCode(TrampolineVA, trampEntryLen); err != nil {
		return x.fail(fmt.Errorf("core: trampoline fetch: %w", err))
	}
	cpu.Tick(costSaveRegs)
	x.key = x.sb.rng.Uint64()
	cpu.Tick(6)
	return nil
}

// switchIn resolves the server's hardware EPTP slot in the context
// process's slot cache (user-level hit; hypercall + possible LRU eviction
// on a miss — the paper's §10 extension; the active chain's slots are
// pinned so nested returns always find their EPT resident), switches into
// the server's view, installs the connection stack and checks the
// calling key. The crossing's flow ID tags the resolve and the VMFUNC;
// the caller's tag comes back afterwards.
func (x *crossing) switchIn() error {
	sb, cpu, srv := x.sb, x.cpu, x.conn.Server
	x.tc = sb.chain(x.env)
	sb.ensureContext(cpu, x.tc)
	prev := cpu.FlowID
	cpu.FlowID = x.fid
	slot, err := sb.RK.ResolveSlot(cpu, x.tc.proc, srv.ID, x.tc.stack)
	if err != nil {
		cpu.FlowID = prev
		return x.fail(fmt.Errorf("core: slot resolve for server %d: %w", srv.ID, err))
	}
	x.tTramp = cpu.Clock
	err = cpu.VMFunc(0, slot)
	cpu.FlowID = prev
	if err != nil {
		return x.fail(fmt.Errorf("core: vmfunc to server %d (slot %d): %w", srv.ID, slot, err))
	}
	sb.afterSwitch(cpu)
	x.senv = x.tc.push(x.env, slot, srv.Proc)
	x.tSwitch = cpu.Clock

	// --- server-side trampoline ---
	cpu.Tick(costInstallStack)
	// Calling-key check against the server's table, read through the
	// server's address space (§4.4: "checks the key against its
	// calling-key table"). The client presents the connection's key.
	key := x.senv.LoadU64(srv.keyTable + hw.VA(8*x.conn.slot))
	cpu.Tick(4) // compare + branch
	if key != x.conn.ServerKey {
		// Deny and notify the Subkernel (§4.4).
		srv.Rejected++
		cpu.Syscall()
		cpu.Swapgs()
		cpu.Tick(50) // kernel logging of the violation
		cpu.Swapgs()
		cpu.Sysret()
		return x.abort(ErrBadKey)
	}
	return nil
}

// leave runs the return thunk: the fetch, the register restore and the
// VMFUNC back to the caller's view. Then the client re-checks the key the
// server echoed ("the receiver should return this key to the sender,
// which rechecks it").
func (x *crossing) leave() error {
	cpu := x.cpu
	x.tServer = cpu.Clock
	if err := cpu.TouchCode(trampReturnVA, trampReturnLen); err != nil {
		return x.fail(fmt.Errorf("core: return thunk fetch: %w", err))
	}
	cpu.Tick(costRestoreRegs)
	x.sb.switchBack(x.env, x.tc)
	echoed := x.key // the simulated trampoline echoes it in a register
	cpu.Tick(6)
	if echoed != x.key {
		return x.fail(ErrReturnKey)
	}
	return nil
}

// abort switches back without the return thunk (a rejected key, a
// timeout, a bad reply) and fails the span with err.
func (x *crossing) abort(err error) error {
	x.sb.switchBack(x.env, x.tc)
	return x.fail(err)
}

// fail closes the crossing's span as failed, tagged bad_key, timeout or
// error, and returns err.
func (x *crossing) fail(err error) error {
	tag := "error"
	switch err {
	case ErrBadKey:
		tag = "bad_key"
	case ErrTimeout:
		tag = "timeout"
	}
	x.tr.End(x.span, x.cpu.Clock, obs.U(tag, 1))
	return err
}

// phases emits a completed call's or batch's four phase slices (the
// in-trace analogue of the paper's Table 2 breakdown) and ends its flow.
// The boundaries are plain Clock reads, so an untraced run is
// unperturbed.
func (x *crossing) phases() {
	tr, now := x.tr, x.cpu.Clock
	tr.Complete(x.t0, x.tTramp-x.t0, "phase.trampoline", "core")
	tr.Complete(x.tTramp, x.tSwitch-x.tTramp, "phase.vmfunc", "core")
	tr.Complete(x.tSwitch, x.tServer-x.tSwitch, "phase.server", "core")
	tr.Complete(x.tServer, now-x.tServer, "phase.return", "core")
	tr.FlowEnd(now, x.fid, x.flow, "flow")
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
