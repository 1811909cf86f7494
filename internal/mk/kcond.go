package mk

import (
	"skybridge/internal/sim"
)

// KCond is a kernel-backed condition variable paired with a KMutex: Wait
// atomically releases the mutex and sleeps in the kernel; Broadcast wakes
// every sleeper through the kernel, paying one IPI per waiter parked on a
// remote core. It charges the same kernel-entry/schedule edges as KMutex
// contention, so sleeping on a condition costs what sleeping on a lock
// does. The fs group-commit log uses it to let transaction reservations
// wait for an in-flight commit without spinning.
type KCond struct {
	Name string
	k    *Kernel
	q    sim.WaitQueue

	// Stats.
	Waits    uint64
	WakeIPIs uint64
}

// NewKCond creates a kernel-backed condition variable on the kernel.
func (k *Kernel) NewKCond(name string) *KCond {
	return &KCond{Name: name, k: k}
}

// Wait releases m, sleeps until the next Broadcast, and reacquires m
// before returning. The caller must hold m.
func (c *KCond) Wait(env *Env, m *KMutex) {
	t := env.T
	if m.owner != t {
		panic("mk: KCond.Wait without holding " + m.Name)
	}
	c.Waits++
	// Release the mutex, then block: the unlock happens before the kernel
	// entry (futex-wait style), and the wait queue is FIFO, so a Broadcast
	// between unlock and park still finds us — the DES interleaves only at
	// park points, so the enqueue below is atomic with the unlock.
	m.Unlock(env)
	m.chargeSleep(env)
	c.q.Wait(t)
	m.chargeWakeup(env)
	m.Lock(env)
}

// Broadcast wakes every waiter through the kernel, sending an IPI to each
// waiter sleeping on a remote core. Callers typically hold the associated
// mutex, but need not.
func (c *KCond) Broadcast(env *Env) {
	t := env.T
	if c.q.Len() == 0 {
		return
	}
	cpu := t.Core
	// Kernel wake path, entered once for the whole broadcast.
	c.k.enterKernel(cpu)
	for c.q.Len() > 0 {
		cpu.Tick(c.k.prof.schedCycles)
		if th := c.q.TakeWhere(func(*sim.Thread) bool { return true }); th != nil {
			if th.Core.ID != cpu.ID {
				c.k.Mach.SendIPI(cpu.ID, th.Core.ID)
				c.WakeIPIs++
			}
			c.k.Eng.Wake(th, t.Now(), nil)
		}
	}
	c.k.exitKernel(cpu)
}
