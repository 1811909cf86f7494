package bench

import (
	"encoding/json"
	"io"
	"time"

	"skybridge/internal/isa"
)

// HostBenchResult records host wall-clock measurements of the experiment
// suite — the quantity the host-side fast paths optimize. Simulated cycle
// results are byte-identical across all cells by construction; only the
// wall-clock seconds differ.
type HostBenchResult struct {
	// Host environment the numbers were taken on.
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	// Experiments is the selector list the timings cover.
	Experiments []string `json:"experiments"`

	// Serial wall-clock with every host accelerator off (-superblock off).
	SerialCachesOffSec float64 `json:"serial_caches_off_sec"`

	// Serial wall-clock with superblock (direct-threaded) execution and
	// block charging on (-superblock on, the default).
	SerialSuperblockOnSec float64 `json:"serial_superblock_on_sec"`
	// SuperblockSpeedup = caches-off / superblock-on.
	SuperblockSpeedup float64 `json:"superblock_speedup"`

	// Parallel wall-clock with all accelerators on, and the worker count.
	Jobs            float64 `json:"jobs"`
	ParallelSec     float64 `json:"parallel_sec"`
	ParallelSpeedup float64 `json:"parallel_speedup"` // superblock-on serial / parallel

	// Micro is the interpreter-dispatch microbenchmark (superblock on vs
	// off) plus the formed-block length histogram.
	Micro *SuperblockMicro `json:"superblock_micro,omitempty"`
}

// SuperblockMicro is the in-process equivalent of BenchmarkSuperblockStep /
// BenchmarkSuperblockOffStep: host nanoseconds per simulated instruction
// through the interpreter hot loop (the 1..100 sum loop), with superblock
// direct-threaded dispatch on vs off, and the block-length histogram of
// the superblock-on run.
type SuperblockMicro struct {
	NsPerInstrOn  float64 `json:"ns_per_instr_on"`
	NsPerInstrOff float64 `json:"ns_per_instr_off"`
	// Speedup = off / on.
	Speedup float64 `json:"speedup"`

	// MeanBlockLen is the mean formed-block length in instructions;
	// BlockLenHist maps length -> blocks formed (nonzero buckets only,
	// ascending length).
	MeanBlockLen float64       `json:"mean_block_len"`
	BlockLenHist []SBLenBucket `json:"block_len_hist"`
}

// SBLenBucket is one nonzero bucket of the formed-block length histogram.
type SBLenBucket struct {
	Len    int    `json:"len"`
	Blocks uint64 `json:"blocks"`
}

// microLoopProgram assembles the sum-1..n loop the isa dispatch benchmarks
// use: a 3-instruction body re-executed n times, the superblock cache's
// bread and butter.
func microLoopProgram(n int32) []byte {
	var a isa.Asm
	a.MovRI32(isa.RAX, 0)
	a.MovRI32(isa.RCX, n)
	top := a.Len()
	a.AluRR(isa.ADD, isa.RAX, isa.RCX)
	a.AluRI8(isa.SUB, isa.RCX, 1)
	body := a.Len()
	a.Jcc(isa.CondNE, 0)
	rel := int32(top - (body + 6))
	b := a.Bytes()
	b[body+2] = byte(rel)
	b[body+3] = byte(rel >> 8)
	b[body+4] = byte(rel >> 16)
	b[body+5] = byte(rel >> 24)
	a.Hlt()
	return a.Bytes()
}

// runMicroLoop executes the loop program iters times with the superblock
// toggle pinned, returning ns per retired instruction and the interpreter
// (for its SBStats).
func runMicroLoop(iters int, superblock bool) (float64, *isa.Interp) {
	prevSB := isa.SetSuperblock(superblock)
	defer isa.SetSuperblock(prevSB)
	ip := isa.NewInterp()
	ip.AddRegion(0x400000, microLoopProgram(100))
	var instrs int
	start := time.Now()
	for i := 0; i < iters; i++ {
		ip.RIP = 0x400000
		ip.Halted = false
		ip.Steps = 0
		if err := ip.Run(10000); err != nil {
			panic(err) // the loop program is fixed and known-good
		}
		instrs += ip.Steps
	}
	elapsed := time.Since(start)
	if instrs == 0 {
		return 0, ip
	}
	return float64(elapsed.Nanoseconds()) / float64(instrs), ip
}

// RunSuperblockMicro runs the dispatch microbenchmark (iters loop
// executions per arm; <=0 picks a default sized for stable timings).
func RunSuperblockMicro(iters int) *SuperblockMicro {
	if iters <= 0 {
		iters = 20000
	}
	// Warm both arms once so cache build cost is off the clock.
	runMicroLoop(iters/10+1, true)
	runMicroLoop(iters/10+1, false)
	nsOn, ip := runMicroLoop(iters, true)
	nsOff, _ := runMicroLoop(iters, false)
	m := &SuperblockMicro{
		NsPerInstrOn:  nsOn,
		NsPerInstrOff: nsOff,
		MeanBlockLen:  ip.SBStats.MeanLen(),
	}
	if nsOn > 0 {
		m.Speedup = nsOff / nsOn
	}
	for n, c := range ip.SBStats.LenHist {
		if c > 0 {
			m.BlockLenHist = append(m.BlockLenHist, SBLenBucket{Len: n, Blocks: c})
		}
	}
	return m
}

// WriteHostBench serializes r as the BENCH_host.json document.
func WriteHostBench(w io.Writer, r HostBenchResult) error {
	if r.SerialSuperblockOnSec > 0 {
		r.SuperblockSpeedup = r.SerialCachesOffSec / r.SerialSuperblockOnSec
	}
	if r.ParallelSec > 0 {
		r.ParallelSpeedup = r.SerialSuperblockOnSec / r.ParallelSec
	}
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
