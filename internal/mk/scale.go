package mk

// Gate parks a drain core taken out of service by a scale-down
// decision. The parked thread sleeps on the calibrated AdaptiveWait
// HLT path (a tiny spin budget: the decision to park was already made,
// so the thread goes to HLT almost immediately) and is IPI-woken by
// the controller when load crosses back over the high-water mark.
// ParkedCycles accumulates time spent HLTed so experiments can report
// busy-core-cycles alongside raw throughput.
type Gate struct {
	parker Parker
	open   bool

	Parks        uint64 // scale-down parks entered
	Unparks      uint64 // controller wakes delivered
	ParkedCycles uint64 // cycles spent shut, measured on the sleeper's clock
}

// NewGate returns an open gate (core in service).
func NewGate() *Gate { return &Gate{open: true} }

// Open reports whether the core is in service.
func (g *Gate) Open() bool { return g.open }

// Shut marks the core out of service; the owning thread must call Wait
// next. Host-side state only — the engine runs one simulated thread at a
// time, so no atomics are needed.
func (g *Gate) Shut() {
	if g.open {
		g.open = false
		g.Parks++
	}
}

// Wait blocks the calling thread until the gate reopens (or done turns
// true, e.g. frontend shutdown). On return the thread re-establishes
// its address space on the core via Kernel.EnsureOn — the core may have
// run nothing, or anything, while the gate was shut.
func (g *Gate) Wait(e *Env, pol WakePolicy, done func() bool) {
	t0 := e.T.Core.Clock
	for !g.open && (done == nil || !done()) {
		e.AdaptiveWait(&g.parker, pol, func() bool {
			return g.open || (done != nil && done())
		}, nil, nil)
	}
	g.ParkedCycles += e.T.Core.Clock - t0
	e.K.EnsureOn(e.T.Core, e.P)
}

// Unpark reopens the gate and wakes the parked thread, paying an IPI
// if the controller runs on a different core (the common case).
func (g *Gate) Unpark(e *Env) {
	if g.open {
		return
	}
	g.open = true
	g.Unparks++
	e.K.WakeParker(e.T.Core, &g.parker)
}

// Close wakes a parked thread for shutdown without reopening the gate;
// pair it with a done predicate passed to Wait.
func (g *Gate) Close(e *Env) {
	e.K.CloseParker(e.T.Core, &g.parker)
}
