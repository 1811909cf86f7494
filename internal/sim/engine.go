//go:build go1.23

// Package sim is a deterministic discrete-event execution engine for
// simulated threads running on the cores of a hw.Machine.
//
// Each simulated thread is a coroutine (iter.Pull), and exactly one runs at
// a time: Run resumes the thread whose pending event has the lowest
// timestamp, the thread executes until it parks (blocks) or checkpoints,
// and control switches back to Run. A thread bound to core C advances C's
// cycle clock as it executes hardware operations; when a thread is resumed
// by an event with timestamp t, its start time is max(t, C.Clock), which
// serializes threads sharing a core without any explicit core scheduler.
//
// Interaction points (locks, IPC endpoints) call Checkpoint first, so
// shared resources are claimed in global time order and runs are fully
// deterministic (ties broken by event sequence number). A polling loop
// runs as Thread.Spin: Run calls its step at each of the thread's wakes
// and switches into the coroutine only when the loop ends.
package sim

import (
	"fmt"
	"iter"

	"skybridge/internal/hw"
)

// event is a scheduled occurrence: either resuming a parked thread or
// running a closure inside Run.
type event struct {
	t   uint64
	seq uint64

	thread *Thread
	val    any
	fn     func()
}

// eventHeap is a binary min-heap of events ordered by (t, seq), stored by
// value in one slice. Events used to be boxed *event nodes managed by
// container/heap, which allocated every push; the slice-backed heap is
// allocation-free at steady state (the backing array is reused) while
// popping in exactly the same (t, seq) order — seq is unique, so the
// ordering is total and independent of heap layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// ThreadState tracks where a thread is in its lifecycle.
type ThreadState int

// Thread states.
const (
	StateReady ThreadState = iota
	StateRunning
	StateParked
	StateFinished
)

// Thread is one simulated thread of execution, pinned to a core.
type Thread struct {
	Name string
	Core *hw.CPU
	// Ctx lets higher layers (the microkernel) attach per-thread state.
	Ctx any

	eng   *Engine
	state ThreadState
	// next runs the thread's coroutine until it parks or finishes; yield,
	// called by Park, switches back to Run.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// val carries the wake value from Run to the Park it resumes.
	val any
	// spin is the step of the Spin in progress, nil outside one. While it
	// is set, Run calls it at the thread's wakes instead of resuming the
	// coroutine.
	spin func() bool
}

// Engine owns the event queue and the machine. Run pops events on its
// caller's goroutine and switches into one thread's coroutine at a time,
// so engine state (the event heap, seq) is only ever touched by whichever
// coroutine is running and needs no locking.
type Engine struct {
	Mach *hw.Machine

	events  eventHeap
	seq     uint64
	threads []*Thread
}

// NewEngine creates an engine over the machine.
func NewEngine(m *hw.Machine) *Engine {
	return &Engine{Mach: m}
}

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
	e.events.siftUp(len(e.events) - 1)
}

func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release thread/val/fn references
	e.events = h[:n]
	e.events.siftDown(0)
	return top
}

// Go creates a thread on the given core and schedules its first run at the
// core's current time. The body runs as the thread's coroutine once Run
// reaches that event.
func (e *Engine) Go(name string, core *hw.CPU, body func(t *Thread)) *Thread {
	th := &Thread{Name: name, Core: core, eng: e, state: StateParked}
	// The coroutine is never stopped early: a thread still parked when Run
	// drains is reported as deadlocked and stays suspended.
	th.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		th.yield = yield
		body(th)
		th.state = StateFinished
	})
	e.threads = append(e.threads, th)
	e.push(event{t: core.Clock, thread: th})
	return th
}

// At schedules fn to run inside Run at time t. fn must not block; it may
// wake parked threads.
func (e *Engine) At(t uint64, fn func()) {
	e.push(event{t: t, fn: fn})
}

// Wake schedules a parked thread to resume at time at, delivering val as
// the return value of its Park call. Waking a non-parked thread is an
// engine-usage bug detected at delivery time (the event is dropped if the
// thread has finished, and Run returns an error if it is running --- the
// caller must own the thread's lifecycle).
func (e *Engine) Wake(t *Thread, at uint64, val any) {
	e.push(event{t: at, thread: t, val: val})
}

// Run processes events until none remain. It returns an error if threads
// are still parked when the queue drains (deadlock) or if one was woken
// while running. Run may be called again after it returns, with threads
// created by Go in between.
//
// Thread bodies run as coroutines that Run switches into, so a panic in a
// body propagates out of Run on its caller's goroutine, where the caller
// may recover it; the engine is not usable afterwards.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.fn != nil {
			ev.fn()
			continue
		}
		th := ev.thread
		switch th.state {
		case StateFinished:
			continue // stale wake (e.g. expired timeout)
		case StateRunning:
			return fmt.Errorf("sim: wake of running thread %q", th.Name)
		}
		// Serialize threads sharing a core: never start before the core's
		// clock.
		if ev.t > th.Core.Clock {
			th.Core.Clock = ev.t
		}
		th.state = StateRunning
		th.val = ev.val
		if th.spin != nil && !e.spinSteps(th) {
			continue
		}
		th.next()
	}
	var stuck []string
	for _, th := range e.threads {
		if th.state == StateParked {
			stuck = append(stuck, th.Name)
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("sim: deadlock: threads still parked: %v", stuck)
	}
	return nil
}

// Now returns the thread's current time (its core's cycle clock).
func (t *Thread) Now() uint64 { return t.Core.Clock }

// Park blocks the thread until another thread or closure wakes it. It
// returns the value passed to Wake. The thread's coroutine yields back to
// Run, which resumes it when it pops the wake. A Spin step must not park.
func (t *Thread) Park() any {
	if t.spin != nil {
		panic(fmt.Sprintf("sim: Park from a Spin step of thread %q", t.Name))
	}
	t.state = StateParked
	t.yield(struct{}{})
	v := t.val
	t.val = nil
	return v
}

// Checkpoint re-enters the thread into the event queue at its current time
// and parks, letting any earlier-timestamped thread run first. Interaction
// primitives call this before touching shared state so resources are
// claimed in global time order.
func (t *Thread) Checkpoint() {
	if !t.mustYield() {
		// Fast path: every pending event is strictly later than this
		// thread's clock, so parking would pop the freshly pushed wake
		// straight back and resume this same thread with nothing run in
		// between. Skipping the round trip only skips one sequence number;
		// the relative (t, seq) order of all other events is unchanged, so
		// the schedule is identical.
		return
	}
	t.eng.Wake(t, t.Core.Clock, nil)
	t.Park()
}

// mustYield reports whether a Checkpoint at the thread's clock has to
// yield: some pending event is due at or before it.
func (t *Thread) mustYield() bool {
	ev := t.eng.events
	return len(ev) > 0 && ev[0].t <= t.Core.Clock
}

// Spin behaves exactly like
//
//	for {
//		t.Checkpoint()
//		if step() {
//			return
//		}
//	}
//
// except that a yielding checkpoint does not switch coroutines: Run calls
// step itself when it pops the thread's wake, and resumes the coroutine
// only once step returns true. The wakes pushed, their times and sequence
// numbers, and the clocks step sees are the loop's, so the schedule is
// identical; what goes is two coroutine switches per yield. step runs on
// the thread's core like the loop body does, but it must not park (Park
// panics); it may charge the clock and wake other threads.
func (t *Thread) Spin(step func() bool) {
	t.spin = step
	for !t.mustYield() {
		if step() {
			t.spin = nil
			return
		}
	}
	t.eng.Wake(t, t.Core.Clock, nil)
	t.state = StateParked
	t.yield(struct{}{})
	// Run resumed the coroutine because step returned true; it has already
	// cleared t.spin.
	t.val = nil
}

// spinSteps runs a spinning thread from one of its wakes: step, then the
// loop's checkpoint, until step returns true (true: resume the coroutine)
// or the checkpoint has to yield (false: the wake is pushed and the
// thread parked again).
func (e *Engine) spinSteps(th *Thread) bool {
	th.val = nil
	for {
		if th.spin() {
			th.spin = nil
			return true
		}
		if th.mustYield() {
			e.Wake(th, th.Core.Clock, nil)
			th.state = StateParked
			return false
		}
	}
}

// Engine returns the engine this thread belongs to.
func (t *Thread) Engine() *Engine { return t.eng }
