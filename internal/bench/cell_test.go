package bench

import (
	"errors"
	"strings"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

// TestCellSettleReportsThreadError: a thread that returns an error leaves
// a sibling parked forever; settle must report the thread's error, not
// only the deadlock it caused.
func TestCellSettleReportsThreadError(t *testing.T) {
	c := &cell{World: MustWorld(WorldConfig{Flavor: mk.SeL4, Cores: 2})}
	p := c.K.NewProcess("p")
	boom := errors.New("boom")
	var never sim.WaitQueue
	c.spawn(p, "fail", c.K.Mach.Cores[0], func(*mk.Env) error { return boom })
	c.spawn(p, "wait", c.K.Mach.Cores[1], func(env *mk.Env) error { never.Wait(env.T); return nil })
	err := c.settle()
	if !errors.Is(err, boom) {
		t.Fatalf("settle = %v, want it to contain the thread's error", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("settle = %v, want the engine's deadlock too", err)
	}
}

// parkLoop is a serve loop that parks until it is closed.
type parkLoop struct {
	eng    *sim.Engine
	q      sim.WaitQueue
	closed bool
}

func (l *parkLoop) Serve(env *mk.Env) error {
	for !l.closed {
		l.q.Wait(env.T)
	}
	return nil
}

func (l *parkLoop) Close(env *mk.Env) {
	l.closed = true
	for l.q.Len() > 0 {
		l.q.WakeOne(l.eng, env.Now(), nil)
	}
}

// TestCellDriveClosesLoopsAfterFailure: the last driver to finish closes
// the serve loops even though it failed, so drive returns its error
// without a deadlock; each window starts after the driver's stagger, and
// a failed driver has none.
func TestCellDriveClosesLoopsAfterFailure(t *testing.T) {
	c := &cell{World: MustWorld(WorldConfig{Flavor: mk.SeL4, Cores: 2})}
	srv := c.K.NewProcess("srv")
	l := &parkLoop{eng: c.Eng}
	c.serve(srv, "poll", c.K.Mach.Cores[0], l)
	procs := []*mk.Process{c.K.NewProcess("d0"), c.K.NewProcess("d1"), c.K.NewProcess("d2")}
	boom := errors.New("boom")
	windows, err := c.drive(procs, func(i int) *hw.CPU { return c.K.Mach.Cores[1] },
		func(i int) uint64 { return 500 },
		func(i int, env *mk.Env) error {
			env.Sleep(uint64(1000 * (i + 1)))
			if i == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("drive = %v, want the driver's error and no deadlock", err)
	}
	if !l.closed {
		t.Error("the last driver did not close the serve loop")
	}
	if windows[0] != 1000 || windows[1] != 2000 || windows[2] != 0 {
		t.Errorf("windows = %v, want [1000 2000 0]", windows)
	}
}
