package bench

// HostBenchResult records host wall-clock measurements of the experiment
// suite. Simulated cycle results are byte-identical across all runs by
// construction; only the wall-clock seconds differ.
type HostBenchResult struct {
	// Host environment the numbers were taken on.
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	// Experiments lists the timed selectors in catalog order.
	Experiments []string `json:"experiments"`
	// ExperimentSec is each experiment's serial wall-clock, timed one
	// experiment at a time in catalog order within one session.
	ExperimentSec map[string]float64 `json:"experiment_sec"`
	// SerialSec is the sum of ExperimentSec.
	SerialSec float64 `json:"serial_sec"`

	// Parallel wall-clock of the whole selection, and the worker count.
	Jobs            float64 `json:"jobs"`
	ParallelSec     float64 `json:"parallel_sec"`
	ParallelSpeedup float64 `json:"parallel_speedup"` // serial / parallel
}
