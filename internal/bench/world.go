// Package bench regenerates every table and figure of the paper's
// evaluation (§6): the IPC microbenchmarks and their cost breakdowns
// (Figure 7, Table 2), the KV-store pipeline (Table 1, Figures 2 and 8),
// the three-tier SQLite3 stack (Table 4, Figures 9-11, Table 5), the
// inadvertent-VMFUNC scan (Table 6), and the design-choice ablations
// called out in DESIGN.md.
//
// Every experiment builds a fresh simulated machine, runs deterministic
// workloads, and reports simulated-cycle results; ops/s figures use the
// testbed's 4 GHz nominal clock.
package bench

import (
	"fmt"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// World is one assembled experiment environment.
type World struct {
	Eng *sim.Engine
	K   *mk.Kernel
	RK  *hv.Rootkernel // nil when running natively
	SB  *core.SkyBridge
}

// WorldConfig selects the stack.
type WorldConfig struct {
	Flavor      mk.Flavor
	Cores       int
	MemBytes    uint64
	Virtualized bool // boot the Rootkernel
	SkyBridge   bool // implies Virtualized
	KPTI        bool
	HVConfig    hv.Config

	// Trace, when non-nil, attaches this world's machine to the tracer as
	// one trace process named Label (one track per core).
	Trace *obs.Tracer
	Label string

	// Calls, when non-nil, receives one CallRecord per completed SkyBridge
	// call (sb.Calls); costs one pointer test per call when nil.
	Calls *obs.CallObserver
}

// NewWorld assembles a machine, kernel, and (optionally) the Rootkernel
// and SkyBridge.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 4 << 30
	}
	mach := hw.NewMachine(hw.MachineConfig{Cores: cfg.Cores, MemBytes: cfg.MemBytes})
	if cfg.Trace != nil {
		label := cfg.Label
		if label == "" {
			label = "machine"
		}
		mach.AttachTrace(cfg.Trace, label)
	}
	eng := sim.NewEngine(mach)
	k := mk.New(mk.Config{Flavor: cfg.Flavor, KPTI: cfg.KPTI}, eng)
	w := &World{Eng: eng, K: k}
	if cfg.Virtualized || cfg.SkyBridge {
		rk, err := hv.Boot(k, cfg.HVConfig)
		if err != nil {
			return nil, err
		}
		w.RK = rk
	}
	if cfg.SkyBridge {
		w.SB = core.New(k, w.RK)
		w.SB.Calls = cfg.Calls
	}
	return w, nil
}

// MustWorld is NewWorld or panic (experiment setup errors are fatal).
func MustWorld(cfg WorldConfig) *World {
	w, err := NewWorld(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: world setup: %v", err))
	}
	return w
}

// mustRun drives w's engine until every thread has exited, or panics
// (like MustWorld, for units whose setup errors are fatal).
func (w *World) mustRun() {
	if err := w.Eng.Run(); err != nil {
		panic(err)
	}
}

// OpsPerSec converts (operations, cycles) to a throughput at the nominal
// 4 GHz clock.
func OpsPerSec(ops int, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / float64(hw.ClockHz))
}

// Transport names the five configurations of the KV pipeline.
type Transport int

// Transports.
const (
	TransportBaseline Transport = iota
	TransportDelay
	TransportIPC
	TransportIPCCross
	TransportSkyBridge
)

// String implements fmt.Stringer.
func (tr Transport) String() string {
	switch tr {
	case TransportBaseline:
		return "Baseline"
	case TransportDelay:
		return "Delay"
	case TransportIPC:
		return "IPC"
	case TransportIPCCross:
		return "IPC-CrossCore"
	case TransportSkyBridge:
		return "SkyBridge"
	default:
		return fmt.Sprintf("Transport(%d)", int(tr))
	}
}

// DirectIPCCost is the paper's measured direct cost of one IPC (493
// cycles), used by the Delay configuration (§2.1.2).
const DirectIPCCost = 493
