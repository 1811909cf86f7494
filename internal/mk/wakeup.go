package mk

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// Adaptive wakeups: the synchronization layer under SkyBridge's
// asynchronous rings. A waiter (a server poll loop with an empty
// submission ring, a client with no completions to reap) first spins,
// polling its ready condition through charged shared-buffer reads; once
// the spin budget is exhausted it publishes an "I am going to sleep" flag,
// re-checks the condition (Dekker-style, so a wakeup posted between the
// flag write and the park is never lost), and HLTs. The other side, after
// producing work, reads the flag and — only if it is set — kicks the
// sleeper: an IPI when the sleeper lives on another core, a plain
// scheduler wake on the same core.
//
// The spin budget is calibrated from the Table 2 cost model: parking
// earlier than the cost of the IPI + interrupt delivery it forces the
// waker and sleeper to pay (1913 + 600 cycles) can never win, so the
// default budget spins exactly that long before sleeping.
const (
	// DefaultSpinBudget is the calibrated spin-before-HLT window:
	// hw.CostIPI + hw.CostInterrupt cycles (the price of being woken the
	// hard way).
	DefaultSpinBudget = hw.CostIPI + hw.CostInterrupt
	// DefaultSpinStep is the busy-poll loop body charge between ready()
	// probes (compare + branch + pause).
	DefaultSpinStep = 32
)

// WakePolicy parameterizes AdaptiveWait. The zero value means defaults.
type WakePolicy struct {
	SpinBudget uint64 // cycles to spin before parking (0 = DefaultSpinBudget)
	SpinStep   uint64 // cycles charged per poll iteration (0 = DefaultSpinStep)
}

func (p WakePolicy) withDefaults() WakePolicy {
	if p.SpinBudget == 0 {
		p.SpinBudget = DefaultSpinBudget
	}
	if p.SpinStep == 0 {
		p.SpinStep = DefaultSpinStep
	}
	return p
}

// WakeKind says how a waiter came back from AdaptiveWait.
type WakeKind int

// Wake kinds.
const (
	// WokeSpin: the condition turned true within the spin budget; the
	// thread never parked.
	WokeSpin WakeKind = iota
	// WokeLocal: parked and woken by a same-core waker (no IPI needed —
	// the cores share a scheduler queue).
	WokeLocal
	// WokeIPI: parked and woken by a cross-core IPI (the waker paid
	// hw.CostIPI, the sleeper pays hw.CostInterrupt on resume).
	WokeIPI
	// WokeClose: parked and woken by shutdown bookkeeping (no hardware
	// event is modeled; the waiter should observe its closed flag).
	WokeClose
)

// WaitStats decomposes how one AdaptiveWait resolved: the cycles spent
// spinning before the decision, the cycles parked (zero on a spin exit),
// and the wakeup-delivery cost paid on resume (interrupt dispatch on an
// IPI wake). Spin + Parked + Delivery is exactly the wait's duration on
// the waiter's clock.
type WaitStats struct {
	Kind     WakeKind
	Spin     uint64
	Parked   uint64
	Delivery uint64
}

// Parker is one adaptive-wait sleep slot: at most one thread waits on it
// at a time (the SPSC rings have exactly one server poll thread and one
// client per ring side).
type Parker struct {
	wq sim.WaitQueue

	// Last describes how the most recent AdaptiveWait on this parker
	// resolved. Single-waiter (SPSC) use makes a single slot sufficient;
	// callers attributing wait cycles read it immediately after the wait.
	Last WaitStats

	// flowID carries the waker-minted wake-flow arrow to the sleeper,
	// which terminates it on its own track after resuming. Set only while
	// tracing is attached.
	flowID uint64

	// The spin phase of the wait in progress: the waiter's environment
	// (nil when no spin runs), its ready condition, policy and start
	// clock, and whether ready ended the spin. step is the sim.Spin step
	// over these fields, built on the parker's first wait.
	env     *Env
	ready   func() bool
	pol     WakePolicy
	start   uint64
	readyOK bool
	step    func() bool
}

// spinStep is one iteration of the spin phase, run after its checkpoint:
// probe ready, give up once the budget is spent, else charge one poll
// iteration.
func (p *Parker) spinStep() bool {
	if p.ready() {
		p.readyOK = true
		return true
	}
	cpu := p.env.T.Core
	if cpu.Clock-p.start >= p.pol.SpinBudget {
		return true
	}
	cpu.Tick(p.pol.SpinStep)
	return false
}

// Waiting reports whether a thread is parked here.
func (p *Parker) Waiting() bool { return p.wq.Len() > 0 }

// AdaptiveWait blocks the environment's thread until ready() returns
// true, spinning first and parking after pol.SpinBudget cycles. arm is
// called (with the thread still runnable) just before the final ready
// re-check and park — it must publish the wake-me flag the eventual waker
// reads; disarm clears it after the wait ends. Both may be nil when the
// waker kicks unconditionally. The arm -> re-check -> park sequence
// contains no Checkpoint, so no producer can slip between the flag
// becoming visible and the thread parking: any wakeup is either seen by
// the re-check or delivered to the parked thread.
//
// The spin is a sim.Spin: each iteration checkpoints, then probes ready
// and charges pol.SpinStep, and the engine runs the iterations that
// follow a yield without resuming the thread. ready must not park, and
// callers that wait often pass the same closure every time, so a wait
// allocates nothing. A second wait on p while a spin runs on it panics.
func (e *Env) AdaptiveWait(p *Parker, pol WakePolicy, ready func() bool, arm, disarm func()) WakeKind {
	if p.env != nil {
		panic(fmt.Sprintf("mk: %s: AdaptiveWait on a parker while %s is still spinning on it", e.T.Name, p.env.T.Name))
	}
	k, cpu := e.K, e.T.Core
	start := cpu.Clock
	p.env, p.ready, p.pol, p.start, p.readyOK = e, ready, pol.withDefaults(), start, false
	if p.step == nil {
		p.step = p.spinStep
	}
	e.T.Spin(p.step)
	p.env = nil
	if p.readyOK {
		k.SpinWakes++
		k.SpinCycles += cpu.Clock - start
		p.Last = WaitStats{Kind: WokeSpin, Spin: cpu.Clock - start}
		return WokeSpin
	}
	if arm != nil {
		arm()
	}
	if ready() {
		// The condition turned true while we were arming: take the spin
		// exit rather than a wakeup that may never come.
		if disarm != nil {
			disarm()
		}
		k.SpinWakes++
		k.SpinCycles += cpu.Clock - start
		p.Last = WaitStats{Kind: WokeSpin, Spin: cpu.Clock - start}
		return WokeSpin
	}
	k.Parks++
	k.SpinCycles += cpu.Clock - start
	tPark := cpu.Clock
	kind, _ := p.wq.Wait(e.T).(WakeKind)
	tResume := cpu.Clock
	if kind == WokeIPI {
		// The sleeper pays interrupt delivery and dispatch on its core.
		if err := cpu.Interrupt(); err != nil {
			panic(err)
		}
	}
	if disarm != nil {
		disarm()
	}
	p.Last = WaitStats{
		Kind:     kind,
		Spin:     tPark - start,
		Parked:   tResume - tPark,
		Delivery: cpu.Clock - tResume,
	}
	if fid := p.flowID; fid != 0 {
		p.flowID = 0
		cpu.Trace.FlowEnd(cpu.Clock, fid, "flow.wake", "flow")
	}
	return kind
}

// WakeParker wakes the thread parked on p (if any), charging an IPI to
// the calling core when the sleeper lives on a different core. It reports
// whether a thread was actually woken — false means nobody was parked
// (the would-be sleeper is still spinning and will see the condition
// itself).
func (k *Kernel) WakeParker(cpu *hw.CPU, p *Parker) bool {
	return k.wakeParker(cpu, p, false)
}

// CloseParker is the shutdown variant of WakeParker: the sleeper comes
// back with WokeClose and no IPI or interrupt is charged (teardown
// bookkeeping, not a modeled hardware event).
func (k *Kernel) CloseParker(cpu *hw.CPU, p *Parker) bool {
	return k.wakeParker(cpu, p, true)
}

func (k *Kernel) wakeParker(cpu *hw.CPU, p *Parker, closing bool) bool {
	th := p.wq.TakeWhere(func(*sim.Thread) bool { return true })
	if th == nil {
		return false
	}
	// Mint a waker->sleeper flow arrow so the trace shows who kicked whom
	// across cores. Only when the waker's core is traced: untraced runs
	// skip the sequence allocation entirely.
	if cpu.Trace != nil {
		k.wakeSeq++
		fid := obs.FlowWake | k.wakeSeq
		p.flowID = fid
		cpu.Trace.FlowStart(cpu.Clock, fid, "flow.wake", "flow")
	}
	kind := WokeLocal
	switch {
	case closing:
		kind = WokeClose
	case th.Core.ID != cpu.ID:
		k.Mach.SendIPI(cpu.ID, th.Core.ID)
		kind = WokeIPI
		k.IPIWakes++
	default:
		k.LocalWakes++
	}
	k.Eng.Wake(th, cpu.Clock, kind)
	return true
}
