package isa

import "testing"

// sbBenchInterp builds an interpreter over the 1..100 sum loop with the
// superblock toggle pinned for the benchmark's duration.
func sbBenchInterp(b *testing.B, superblock bool) *Interp {
	b.Helper()
	prev := SetSuperblock(superblock)
	b.Cleanup(func() { SetSuperblock(prev) })
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(100))
	return ip
}

func runLoop(b *testing.B, ip *Interp) {
	for i := 0; i < b.N; i++ {
		ip.RIP = 0x400000
		ip.Halted = false
		ip.Steps = 0
		if err := ip.Run(10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuperblockStep measures fused direct-threaded dispatch: the
// loop body executes as cached superblocks, one byte-validation per block.
func BenchmarkSuperblockStep(b *testing.B) {
	runLoop(b, sbBenchInterp(b, true))
}

// BenchmarkSuperblockOffStep is the identical loop through per-step
// dispatch, isolating the superblock win.
func BenchmarkSuperblockOffStep(b *testing.B) {
	runLoop(b, sbBenchInterp(b, false))
}
