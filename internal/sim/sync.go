package sim

// Mutex is a simulated mutex with FIFO handoff and contention accounting.
// The xv6fs port uses one big lock (paper §6.5: "since the xv6fs does not
// support multithreading, we use one big lock in the file system, that is
// the reason why the scalability is so bad"), so lock contention is what
// shapes Figures 9-11.
type Mutex struct {
	Name string

	owner   *Thread
	waiters []*Thread
	// freeAt is the simulated time the last hold ended. Because the engine
	// runs whole segments atomically, a claimant whose timestamp ties with
	// (or falls inside) an already-simulated hold must still observe that
	// hold; it is made to wait until freeAt.
	freeAt uint64

	// Stats.
	Acquisitions uint64
	Contended    uint64
	WaitCycles   uint64
}

// Lock acquires the mutex, parking the thread if it is held. Acquisition
// order among concurrent threads is global-time order (via Checkpoint),
// then FIFO.
func (m *Mutex) Lock(t *Thread) {
	t.Checkpoint()
	m.Acquisitions++
	if m.owner == nil {
		if t.Now() < m.freeAt {
			m.Contended++
			m.WaitCycles += m.freeAt - t.Now()
			t.Core.Clock = m.freeAt
		}
		m.owner = t
		return
	}
	m.Contended++
	start := t.Now()
	m.waiters = append(m.waiters, t)
	t.Park()
	// Woken by Unlock with ownership already transferred.
	m.WaitCycles += t.Now() - start
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("sim: Mutex.Unlock by non-owner " + t.Name)
	}
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
	t.eng.Wake(next, t.Now(), nil)
}

// WaitQueue is a simple FIFO sleep queue (condition-variable style): the
// building block for IPC endpoints.
type WaitQueue struct {
	Name    string
	waiters []*Thread
}

// Wait parks the calling thread on the queue and returns the wake value.
func (q *WaitQueue) Wait(t *Thread) any {
	q.waiters = append(q.waiters, t)
	return t.Park()
}

// WakeOne wakes the oldest waiter at time at with val, reporting whether a
// waiter existed.
func (q *WaitQueue) WakeOne(e *Engine, at uint64, val any) bool {
	if len(q.waiters) == 0 {
		return false
	}
	th := q.waiters[0]
	q.waiters = q.waiters[1:]
	e.Wake(th, at, val)
	return true
}

// TakeWhere removes and returns the oldest waiter satisfying pred, or nil.
func (q *WaitQueue) TakeWhere(pred func(*Thread) bool) *Thread {
	for i, th := range q.waiters {
		if pred(th) {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return th
		}
	}
	return nil
}

// Remove deletes a specific thread from the queue (used by timeout paths).
// It reports whether the thread was queued.
func (q *WaitQueue) Remove(t *Thread) bool {
	for i, th := range q.waiters {
		if th == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }
