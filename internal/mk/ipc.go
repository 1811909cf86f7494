package mk

import (
	"errors"
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// Breakdown accumulates IPC path cycles by component, regenerating the
// stacked bars of Figure 7.
type Breakdown struct {
	Cats   map[string]uint64
	Rounds uint64
}

// Breakdown categories (Figure 7 legend).
const (
	CatVMFUNC  = "VMFUNC"
	CatSyscall = "SYSCALL/SYSRET"
	CatCtxSw   = "context switch"
	CatIPI     = "IPI"
	CatCopy    = "message copy"
	CatSched   = "schedule"
	CatOther   = "others"
)

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{Cats: make(map[string]uint64)} }

// Add records cycles against a category.
func (b *Breakdown) Add(cat string, cyc uint64) {
	if b != nil {
		b.Cats[cat] += cyc
	}
}

// Total sums all categories.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b.Cats {
		t += v
	}
	return t
}

// PerRound returns the per-round-trip cycles of each category.
func (b *Breakdown) PerRound() map[string]float64 {
	out := make(map[string]float64, len(b.Cats))
	if b.Rounds == 0 {
		return out
	}
	for k, v := range b.Cats {
		out[k] = float64(v) / float64(b.Rounds)
	}
	return out
}

// record measures the cycles fn spends on cpu and attributes them.
func (k *Kernel) record(cpu *hw.CPU, cat string, fn func()) {
	if k.BD == nil {
		fn()
		return
	}
	t0 := cpu.Clock
	fn()
	k.BD.Add(cat, cpu.Clock-t0)
}

// ErrNoCapability is returned when a process invokes an endpoint it holds
// no capability for.
var ErrNoCapability = errors.New("mk: no capability for endpoint")

// ErrTimeout is returned by CallTimeout when the server does not reply in
// time (the DoS-defense mechanism of §7).
var ErrTimeout = errors.New("mk: ipc call timed out")

// regMsgBytes is the payload size that fits in registers (seL4 fastpath
// condition: "the IPC message fits in CPU registers").
const regMsgBytes = 32

// Msg is an IPC message: a register part plus an optional memory payload
// located in the *sender's* address space at Buf. Payload bytes really move
// through simulated memory, so corruption bugs are observable.
type Msg struct {
	Regs [4]uint64
	Buf  hw.VA
	Len  int
}

// Endpoint is a synchronous IPC endpoint with server threads that park in
// Recv and clients that Call.
type Endpoint struct {
	Name string
	k    *Kernel

	recvQ   sim.WaitQueue
	pending []*callCtx
	closed  bool

	// kbuf is the kernel-side transfer buffer for long messages.
	kbufVA  hw.VA
	kbufLen int
	// winVA is the endpoint's receiver-side temporary-mapping window.
	winVA hw.VA

	// Calls counts client invocations.
	Calls uint64
}

// leg is one direction of a call: the request or the reply. Each leg is
// fast or slow on its own, as in seL4 (a register-sized request can
// receive a long reply via the slow reply path).
type leg struct {
	msg   Msg
	fast  bool // takes the fastpath: a direct switch, no scheduler
	cross bool // its receiver runs on another core
	// inline carries a register-sized payload (<= regMsgBytes), which
	// travels in CPU registers rather than through the kernel buffer.
	inline []byte
	// stage holds a copied payload while in flight. The cache traffic of
	// the kernel transfer buffer is charged via copyIn/copyOut; the bytes
	// are staged per message (as a real kernel's per-message buffers
	// would) so concurrent in-flight messages cannot alias.
	stage []byte
}

// callCtx tracks one in-flight call.
type callCtx struct {
	call, reply leg
	client      *Env
	serverP     *Process // set at reply time (temporary-mapping reply leg)
	timedOut    bool
	done        bool
}

// NewEndpoint creates an endpoint on the kernel.
func (k *Kernel) NewEndpoint(name string) *Endpoint {
	ep := &Endpoint{Name: name, k: k, kbufLen: hw.PageSize}
	ep.kbufVA = k.allocKernelPage()
	// Each endpoint gets its own temporary-mapping window (16 pages).
	ep.winVA = tempWindowVA + hw.VA(len(k.endpoints)*16*hw.PageSize)
	k.endpoints = append(k.endpoints, ep)
	return ep
}

// Close shuts the endpoint down: parked servers wake with nil and exit
// their serve loops.
func (ep *Endpoint) Close() {
	ep.closed = true
	for ep.recvQ.Len() > 0 {
		ep.recvQ.WakeOne(ep.k.Eng, 0, nil)
	}
}

// takeWaiter removes and returns a parked server, preferring one on the
// given core (the fastpath's condition), or nil when none is parked.
func (ep *Endpoint) takeWaiter(coreID int) *Env {
	th := ep.recvQ.TakeWhere(func(t *sim.Thread) bool { return t.Core.ID == coreID })
	if th == nil {
		th = ep.recvQ.TakeWhere(func(*sim.Thread) bool { return true })
	}
	if th == nil {
		return nil
	}
	return th.Ctx.(*Env)
}

// getStage returns an n-byte staging buffer, reusing a pooled one when a
// previous call of the same payload size has completed. Callers overwrite
// the full length, so recycled contents never leak between messages.
func (k *Kernel) getStage(n int) []byte {
	if s := k.stagePool[n]; len(s) > 0 {
		buf := s[len(s)-1]
		k.stagePool[n] = s[:len(s)-1]
		return buf
	}
	return make([]byte, n)
}

// putStage returns a consumed staging buffer to the pool. buf must not be
// referenced by any in-flight call afterwards.
func (k *Kernel) putStage(buf []byte) {
	if buf == nil {
		return
	}
	if k.stagePool == nil {
		k.stagePool = make(map[int][][]byte)
	}
	k.stagePool[len(buf)] = append(k.stagePool[len(buf)], buf)
}

// copyIn moves a payload from the current address space through the kernel
// transfer buffer, charging the copy, and returns the staged bytes. Chunks
// beyond the buffer wrap (the real kernel loops the same way).
func (ep *Endpoint) copyIn(cpu *hw.CPU, buf hw.VA, n int) []byte {
	k := ep.k
	cpu.Tick(k.prof.copySetup)
	staged := k.getStage(n)
	for off := 0; off < n; off += ep.kbufLen {
		chunk := min(ep.kbufLen, n-off)
		if err := cpu.ReadData(buf+hw.VA(off), staged[off:off+chunk], chunk); err != nil {
			panic(fmt.Sprintf("mk: ipc copyIn: %v", err))
		}
		prevMode := cpu.Mode
		cpu.Mode = hw.ModeKernel
		if err := cpu.WriteData(ep.kbufVA, staged[off:off+chunk], chunk); err != nil {
			panic(fmt.Sprintf("mk: ipc copyIn kbuf: %v", err))
		}
		cpu.Mode = prevMode
	}
	return staged
}

// copyOut moves staged payload bytes through the kernel transfer buffer
// into the current address space, charging the copy.
func (ep *Endpoint) copyOut(cpu *hw.CPU, buf hw.VA, staged []byte) {
	k := ep.k
	n := len(staged)
	cpu.Tick(k.prof.copySetup)
	for off := 0; off < n; off += ep.kbufLen {
		chunk := min(ep.kbufLen, n-off)
		prevMode := cpu.Mode
		cpu.Mode = hw.ModeKernel
		if err := cpu.ReadData(ep.kbufVA, nil, chunk); err != nil {
			panic(fmt.Sprintf("mk: ipc copyOut kbuf: %v", err))
		}
		cpu.Mode = prevMode
		if err := cpu.WriteData(buf+hw.VA(off), staged[off:off+chunk], chunk); err != nil {
			panic(fmt.Sprintf("mk: ipc copyOut: %v", err))
		}
	}
}

// needsCopy reports whether a payload of n bytes is copied through the
// kernel for this flavor (Zircon copies any payload; fastpath kernels copy
// only what does not fit in registers).
func (k *Kernel) needsCopy(n int) bool {
	if n == 0 {
		return false
	}
	if k.prof.msgCopies > 0 {
		return true
	}
	return n > regMsgBytes
}

// Call performs a synchronous IPC call: send req, block, receive the reply.
// A reply payload is deposited at replyBuf in the caller's address space.
func (e *Env) Call(ep *Endpoint, req Msg, replyBuf hw.VA) (Msg, error) {
	return e.callInternal(ep, req, replyBuf, 0)
}

// CallTimeout is Call with a cycle deadline: if the server has not replied
// within timeout cycles, the call aborts with ErrTimeout (§7's defense
// against servers that never return).
func (e *Env) CallTimeout(ep *Endpoint, req Msg, replyBuf hw.VA, timeout uint64) (Msg, error) {
	return e.callInternal(ep, req, replyBuf, timeout)
}

func (e *Env) callInternal(ep *Endpoint, req Msg, replyBuf hw.VA, timeout uint64) (Msg, error) {
	k, cpu := e.K, e.T.Core
	if !e.P.Caps[ep] {
		return Msg{}, ErrNoCapability
	}
	e.T.Checkpoint()
	// Re-establish this thread's address space: other threads may have run
	// on the core while we were queued (their context switches are what a
	// real kernel would perform when resuming us).
	e.enter()
	k.IPCCalls++
	ep.Calls++
	span := cpu.Trace.Begin(cpu.Clock, "ipc.call", "mk")

	ctx := &callCtx{call: leg{msg: req}, client: e}
	ctx.call.load(e)
	// Only the call leg chooses its receiver: a parked server, preferring
	// one on this core, or none, which queues the call on the endpoint.
	// Only the call leg counts fastpaths and slowpaths.
	srv := ep.takeWaiter(cpu.ID)
	ep.send(&ctx.call, e, srv)
	if ctx.call.fast {
		k.Fastpaths++
	} else {
		k.Slowpaths++
	}
	if srv != nil {
		k.Eng.Wake(srv.T, cpu.Clock, ctx)
	} else {
		ep.pending = append(ep.pending, ctx)
	}

	if timeout > 0 {
		deadline := cpu.Clock + timeout
		k.Eng.At(deadline, func() {
			if !ctx.done {
				ctx.timedOut = true
				k.Eng.Wake(e.T, deadline, ctx)
			}
		})
	}

	// Block until the reply (or timeout) arrives.
	got := e.T.Park().(*callCtx)
	if got != ctx {
		panic("mk: ipc wake context mismatch")
	}
	if ctx.timedOut {
		// The kernel aborts the call and returns to user mode with
		// SWAPGS+SYSRET alone: no KPTI switch back is charged.
		k.sysret(cpu)
		cpu.Trace.End(span, cpu.Clock, obs.U("timeout", 1))
		return Msg{}, ErrTimeout
	}
	// The client's receive charges KPTI's switch back before the copy.
	ep.receive(&ctx.reply, ctx.serverP, e, replyBuf, false)
	reply := ctx.reply.store(e, replyBuf)
	cpu.Trace.End(span, cpu.Clock,
		obs.U("fast", b2u(ctx.call.fast)), obs.U("cross", b2u(ctx.call.cross)))
	return reply, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// load moves a register-sized payload into registers: a user-mode read
// of the sender's buffer before the kernel entry.
func (l *leg) load(env *Env) {
	if l.msg.Len > 0 && !env.K.needsCopy(l.msg.Len) {
		l.inline = make([]byte, l.msg.Len)
		env.Read(l.msg.Buf, l.inline, l.msg.Len)
	}
}

// store is the receiver's half of load, after the receive half: a
// user-mode store of an inline payload to buf. It returns the message as
// the receiver sees it, with any payload at buf.
func (l *leg) store(env *Env, buf hw.VA) Msg {
	m := l.msg
	if m.Len > 0 {
		if l.inline != nil {
			env.Write(buf, l.inline, len(l.inline))
		}
		m.Buf = buf
	}
	return m
}

// send is the send half of a leg, on the sender's core. It routes the leg
// to its receiver (to is nil when no server is parked yet) and enters the
// kernel. The fastpath then switches straight into the receiver's address
// space and returns to its user mode. The slowpath runs the scheduler,
// stages the payload (copied in, or snapshotted for temporary mapping)
// and, for a receiver on another core, sends the IPI; it returns still in
// the kernel.
func (ep *Endpoint) send(l *leg, from, to *Env) {
	k, cpu := ep.k, from.T.Core
	l.cross = to != nil && to.T.Core.ID != cpu.ID
	l.fast = k.prof.hasFastpath && to != nil && !l.cross && !k.needsCopy(l.msg.Len)
	k.enterKernel(cpu)
	if l.fast {
		k.record(cpu, CatOther, func() {
			k.touchKernel(cpu, k.prof.fastTextBytes, k.prof.fastDataLines)
			cpu.Tick(k.prof.fastResidual)
		})
		k.record(cpu, CatCtxSw, func() { k.switchTo(cpu, to.P) })
		k.exitKernel(cpu)
		return
	}
	k.record(cpu, CatOther, func() {
		k.touchKernel(cpu, k.prof.slowTextBytes, k.prof.slowDataLines)
		cpu.Tick(k.prof.slowResidual)
	})
	k.record(cpu, CatSched, func() { cpu.Tick(k.prof.schedCycles) })
	if k.needsCopy(l.msg.Len) {
		if k.Cfg.TempMapping {
			// No sender-side copy: snapshot the frames' content (the
			// sender blocks, so they are stable).
			l.stage = k.rawRead(from.P, l.msg.Buf, l.msg.Len)
		} else {
			k.record(cpu, CatCopy, func() { l.stage = ep.copyIn(cpu, l.msg.Buf, l.msg.Len) })
		}
	}
	if l.cross {
		k.record(cpu, CatSched, func() { cpu.Tick(k.prof.crossExtra) })
		k.record(cpu, CatIPI, func() { k.Mach.SendIPI(cpu.ID, to.T.Core.ID) })
	}
}

// receive is the receive half of a leg, on the receiver's core after the
// sender woke it. A fastpath leg already switched into this address space
// and returned to user mode. A slowpath leg resumes in the kernel (by the
// IPI's interrupt when cross-core), runs the scheduler, switches in,
// delivers a staged payload to buf (copied out, or copied once through a
// temporary mapping of the sender's frames), recycles the staging buffer
// and returns to user mode. The server's receive charges KPTI's switch to
// the kernel table after its address-space switch and the switch back
// after the copy; the client's charges only the switch back, before the
// copy.
func (ep *Endpoint) receive(l *leg, from *Process, to *Env, buf hw.VA, server bool) {
	k, cpu := ep.k, to.T.Core
	if l.fast {
		cpu.Mode = hw.ModeUser
		return
	}
	if l.cross {
		k.record(cpu, CatIPI, func() {
			if err := cpu.Interrupt(); err != nil {
				panic(err)
			}
		})
	} else {
		cpu.Mode = hw.ModeKernel
	}
	k.record(cpu, CatSched, func() { cpu.Tick(k.prof.schedCycles) })
	k.record(cpu, CatCtxSw, func() {
		k.switchTo(cpu, to.P)
		if server {
			k.kptiEnter(cpu)
		} else {
			k.kptiExit(cpu)
		}
	})
	if k.needsCopy(l.msg.Len) {
		if k.Cfg.TempMapping {
			k.record(cpu, CatCopy, func() {
				win, pages, err := k.tempMap(cpu, from, to.P, l.msg.Buf, l.msg.Len, ep.winVA)
				if err != nil {
					panic(err)
				}
				k.tempCopy(cpu, win, buf, l.stage)
				k.tempUnmap(cpu, to.P, ep.winVA, pages)
			})
		} else {
			k.record(cpu, CatCopy, func() { ep.copyOut(cpu, buf, l.stage) })
		}
		// The payload now lives in the receiver's buffer; the staging
		// buffer is dead and can be recycled.
		k.putStage(l.stage)
		l.stage = nil
	}
	if server {
		k.exitKernel(cpu)
	} else {
		k.sysret(cpu)
	}
}

// Serve runs a server loop on the endpoint: park in Recv, run handler,
// reply, repeat (the Call/ReplyWait pattern). It returns when the endpoint
// is closed. The handler's reply Msg.Buf (if any) must point into the
// server's address space.
func (k *Kernel) Serve(env *Env, ep *Endpoint, recvBuf hw.VA, handler func(env *Env, req Msg) Msg) {
	cpu := env.T.Core
	env.T.Ctx = env
	for {
		var ctx *callCtx
		env.T.Checkpoint()
		if len(ep.pending) > 0 {
			ctx = ep.pending[0]
			ep.pending = ep.pending[1:]
		} else {
			if ep.closed {
				return
			}
			v := ep.recvQ.Wait(env.T)
			if v == nil {
				return
			}
			ctx = v.(*callCtx)
		}
		if ctx.timedOut {
			// Client is gone; drop the request. Its staged payload (if any)
			// will never be copied out, so recycle it here.
			k.putStage(ctx.call.stage)
			ctx.call.stage = nil
			continue
		}
		span := cpu.Trace.Begin(cpu.Clock, "ipc.serve", "mk")
		ep.receive(&ctx.call, ctx.client.P, env, recvBuf, true)
		reply := handler(env, ctx.call.store(env, recvBuf))

		// Re-enter the event queue at the handler's finish time so that
		// earlier-timestamped events (e.g. the client's timeout) order
		// correctly before the reply, then restore our address space in
		// case an interleaved thread switched it.
		env.T.Checkpoint()
		env.enter()
		if ctx.timedOut {
			cpu.Trace.End(span, cpu.Clock, obs.U("timeout", 1))
			continue // timed out while we were handling it; drop the reply
		}
		ctx.reply.msg = reply
		ctx.reply.load(env)
		ctx.serverP = env.P
		ctx.done = true

		// Reply path (ReplyWait: reply and wait combined in one syscall).
		// A slow reply returns the server to user mode before it wakes
		// the client; a slow call leaves its client in the kernel.
		ep.send(&ctx.reply, env, ctx.client)
		if !ctx.reply.fast {
			k.exitKernel(cpu)
		}
		k.Eng.Wake(ctx.client.T, cpu.Clock, ctx)
		cpu.Trace.End(span, cpu.Clock,
			obs.U("fast_reply", b2u(ctx.reply.fast)), obs.U("cross", b2u(ctx.reply.cross)))
	}
}
