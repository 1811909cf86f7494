package main

import (
	"fmt"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// world is one simulated machine with a seL4-flavoured kernel and,
// for SkyBridge workloads, the Rootkernel and SkyBridge on top.
type world struct {
	eng *sim.Engine
	k   *mk.Kernel
	sb  *core.SkyBridge // nil on native worlds
	// calls is the always-on per-call observer skybench sessions attach:
	// a phase breakdown plus a flight recorder.
	calls *obs.CallObserver
}

func newWorld(cores int, skybridge bool) (*world, error) {
	mach := hw.NewMachine(hw.MachineConfig{Cores: cores, MemBytes: 8 << 30})
	eng := sim.NewEngine(mach)
	w := &world{eng: eng, k: mk.New(mk.Config{Flavor: mk.SeL4}, eng)}
	if skybridge {
		rk, err := hv.Boot(w.k, hv.Config{})
		if err != nil {
			return nil, fmt.Errorf("rootkernel boot: %w", err)
		}
		w.sb = core.New(w.k, rk)
		w.calls = &obs.CallObserver{
			Breakdown: obs.NewBreakdown(),
			Flight:    obs.NewFlightRecorder(obs.FlightConfig{}),
		}
		w.sb.Calls = w.calls
	}
	return w, nil
}

// core returns simulated core i.
func (w *world) core(i int) *hw.CPU { return w.k.Mach.Cores[i] }

// run drains the engine, naming the phase on error.
func (w *world) run(phase string) error {
	if err := w.eng.Run(); err != nil {
		return fmt.Errorf("%s: %w", phase, err)
	}
	return nil
}

// openWindow zeroes every simulated counter and call record, and turns
// span recording on: what follows is the measurement window. It runs
// while no simulated thread executes, or from the one thread that holds
// the others at a barrier.
func (w *world) openWindow(r *result, tr *tracer) {
	w.k.Mach.ResetStats()
	w.k.Mach.ResetVMExitCounts()
	w.calls.Reset()
	tr.start()
	r.pace = startPacer()
	r.reg = w.k.Mach.Obs
	r.calls = w.calls
	r.spans = tr
}

// closeWindow ends the window's host measurement and records what only
// the machine knows at the end.
func (w *world) closeWindow(r *result) {
	r.host = r.pace.finish()
	r.pace = nil
	r.vmExits = w.k.Mach.TotalVMExits()
}

// maxClock is the furthest-ahead core clock: the start of a window that
// every core can reach.
func (w *world) maxClock() uint64 {
	var m uint64
	for _, c := range w.k.Mach.Cores {
		if c.Clock > m {
			m = c.Clock
		}
	}
	return m
}
