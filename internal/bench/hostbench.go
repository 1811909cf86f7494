package bench

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

	// Serial wall-clock with superblock execution and block charging off
	// (-superblock off).
	SerialSuperblockOffSec float64 `json:"serial_superblock_off_sec"`

	// Serial wall-clock with superblock (direct-threaded) execution and
	// block charging on (-superblock on, the default).
	SerialSuperblockOnSec float64 `json:"serial_superblock_on_sec"`
	// SuperblockSpeedup = superblock-off / superblock-on.
	SuperblockSpeedup float64 `json:"superblock_speedup"`

	// Parallel wall-clock with all accelerators on, and the worker count.
	Jobs            float64 `json:"jobs"`
	ParallelSec     float64 `json:"parallel_sec"`
	ParallelSpeedup float64 `json:"parallel_speedup"` // superblock-on serial / parallel
}
