package mk

import (
	"skybridge/internal/sim"
)

// KMutex is a kernel-backed (futex-style) mutex: the uncontended path is a
// user-mode atomic, but a contended acquire sleeps in the kernel and a
// contended release wakes the next waiter through the kernel — with a
// cross-core IPI when the waiter sleeps on another core. This is what makes
// lock handoff expensive on real microkernels, and it is the mechanism
// behind the negative scaling of Figures 9-11: the xv6fs big lock turns
// every file-system operation into a lock convoy once threads multiply.
type KMutex struct {
	Name string
	k    *Kernel

	owner   *sim.Thread
	waiters []*sim.Thread
	// freeAt carries hold intervals of already-simulated segments (same
	// role as in sim.Mutex).
	freeAt uint64

	// Stats.
	Acquisitions uint64
	Contended    uint64
	WaitCycles   uint64
	WakeIPIs     uint64
}

// NewKMutex creates a kernel-backed mutex on the kernel.
func (k *Kernel) NewKMutex(name string) *KMutex {
	return &KMutex{Name: name, k: k}
}

// Lock acquires the mutex. The fast path costs one atomic; the slow path
// enters the kernel, sleeps, and pays scheduler work on both edges.
func (m *KMutex) Lock(env *Env) {
	t := env.T
	t.Checkpoint()
	cpu := t.Core
	cpu.Tick(20) // user-mode CAS attempt
	m.Acquisitions++

	if m.owner == nil {
		if t.Now() < m.freeAt {
			// The lock was held during this time by an already-simulated
			// segment: contend and sleep until its release time.
			m.chargeSleep(env)
			m.Contended++
			m.WaitCycles += m.freeAt - t.Now()
			if m.freeAt > cpu.Clock {
				cpu.Clock = m.freeAt
			}
			m.chargeWakeup(env)
		}
		m.owner = t
		return
	}

	// Contended: sleep in the kernel until handoff.
	m.Contended++
	start := t.Now()
	m.chargeSleep(env)
	m.waiters = append(m.waiters, t)
	t.Park()
	m.WaitCycles += t.Now() - start
	m.chargeWakeup(env)
}

// chargeSleep is the kernel entry + schedule-away cost of blocking.
func (m *KMutex) chargeSleep(env *Env) {
	cpu := env.T.Core
	m.k.enterKernel(cpu)
	cpu.Tick(m.k.prof.schedCycles)
}

// chargeWakeup is the schedule-in + kernel exit cost after being woken.
func (m *KMutex) chargeWakeup(env *Env) {
	cpu := env.T.Core
	cpu.Tick(m.k.prof.schedCycles)
	m.k.exitKernel(cpu)
	// Re-establish our address space: the core may have run others.
	env.enter()
}

// Unlock releases the mutex, waking the oldest waiter through the kernel
// (with an IPI if it sleeps on another core).
func (m *KMutex) Unlock(env *Env) {
	t := env.T
	if m.owner != t {
		panic("mk: KMutex.Unlock by non-owner " + t.Name)
	}
	cpu := t.Core
	cpu.Tick(20) // user-mode release
	if t.Now() > m.freeAt {
		m.freeAt = t.Now()
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	// Kernel wake path.
	m.k.enterKernel(cpu)
	cpu.Tick(m.k.prof.schedCycles)
	if next.Core.ID != cpu.ID {
		m.k.Mach.SendIPI(cpu.ID, next.Core.ID)
		m.WakeIPIs++
	}
	m.k.exitKernel(cpu)
	m.k.Eng.Wake(next, t.Now(), nil)
}
