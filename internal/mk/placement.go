package mk

import "skybridge/internal/hw"

// Placement deterministically assigns logical indices — server shards,
// client threads — to machine cores, round-robin modulo the core count.
// The sharded serving stack places shard i's server thread on Core(i) so
// every core owns one shard of each service, and benchmarks use the same
// mapping for client spread and for the paper's pinned cross-core server
// configurations, instead of hand-picking core numbers per experiment.
type Placement struct {
	cores []*hw.CPU
}

// Placement returns the kernel's core placement map.
func (k *Kernel) Placement() *Placement { return &Placement{cores: k.Mach.Cores} }

// N returns the number of cores placed over.
func (p *Placement) N() int { return len(p.cores) }

// Core returns the core owning logical index i (round-robin).
func (p *Placement) Core(i int) *hw.CPU { return p.cores[i%len(p.cores)] }
