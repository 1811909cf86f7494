// Command benchmark is the repository's benchmark: four workloads driven
// through the simulator's layers, every reply checked, reported as
// end-to-end metrics (-trace 0) or per-layer metrics from a traced run
// (-trace 1). See README.md for the workloads, metrics, and how to run
// it.
//
//	go run . -workload ipc-echo -seed 1 -seconds 15 -trace 0
//	go run .                      # all four workloads, one process each
//
// Every metric prints as one JSON line {workload, metric, value, unit,
// samples}; the last line of standard output is the run's summary
// {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// A run builds its workload at least setupRuns times, and until the
// builds have taken setupBudget of host time, so that millisecond-scale
// set-ups still yield a steady median; setup_s is that median, and only
// the last build is measured.
const (
	setupRuns   = 3
	setupBudget = time.Second
)

// workload is one benchmark workload. Its op count is opsPerSec times
// -seconds: a fixed number per run, so simulated results depend on the
// seed alone, sized so a run measures about -seconds of host time on a
// 2-CPU reference box.
type workload struct {
	name      string
	opsPerSec int
	run       func(cfg runConfig, ops int) (*result, error)
}

var workloads = []workload{
	{"ipc-echo", 780_000, runEcho},
	{"sqlite-sb", 5_800, func(cfg runConfig, ops int) (*result, error) {
		return runSQLite(cfg, sqliteSB, ops)
	}},
	{"sqlite-kipc", 5_600, func(cfg runConfig, ops int) (*result, error) {
		return runSQLite(cfg, sqliteKIPC, ops)
	}},
	{"kv-skew", 64_000, runKVSkew},
}

// runConfig is what a workload run receives: its inputs come from seed.
type runConfig struct {
	seed int64
	tr   *tracer // nil when untraced
}

// clientSeed derives client ci's generator seed from the run's seed.
func clientSeed(seed int64, ci int) int64 {
	return seed*1_000_003 + int64(ci)*7919 + 17
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	traceDir   string
	spans      bool
	cpuProfile string
}

func main() {
	runtime.GOMAXPROCS(2)
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (ipc-echo, sqlite-sb, sqlite-kipc, kv-skew); empty runs all four, one process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 15, "run length: the op count is this many seconds' worth on the reference box")
	flag.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics; 1 runs untraced and traced and prints per-layer metrics")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans, layer histograms, and the CPU profile")
	flag.BoolVar(&o.spans, "spans", false, "record spans (set by -trace 1 on its traced child)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run (set by -trace 1 on its untraced child)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.workload == "" {
		return runAll(o, out)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace == 1 {
		return traced(o, wl, out)
	}
	return runOne(o, wl, out)
}

// runOne runs one workload in this process and prints its metrics.
func runOne(o options, wl *workload, out io.Writer) error {
	var setups []time.Duration
	for total := time.Duration(0); len(setups) < setupRuns-1 || total < setupBudget; {
		r, err := wl.run(runConfig{seed: o.seed}, 0)
		if err != nil {
			return fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setups = append(setups, r.setup...)
		total += r.setup[0]
	}
	runtime.GC() // the discarded builds' memory is free before the measured one
	stopProfile := func() error { return nil }
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	cfg := runConfig{seed: o.seed}
	if o.spans {
		cfg.tr = newTracer()
	}
	r, err := wl.run(cfg, wl.opsPerSec*o.seconds)
	if perr := stopProfile(); err == nil && perr != nil {
		err = fmt.Errorf("cpu profile: %w", perr)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	r.setup = append(setups, r.setup...)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	ms := endToEndMetrics(wl.name, r, rss)
	ms = append(ms, layerMetrics(wl.name, r)...)
	ms = append(ms,
		metric{wl.name, "host.raw_ops_per_s", median(r.host.raw), "ops/s", uint64(len(r.host.raw))},
		metric{wl.name, "host.raw_setup_s", median(r.setup).Seconds(), "s", uint64(len(r.setup))},
		metric{wl.name, "host.calib_ms", float64(median(r.host.calibs)) / 1e6, "ms", uint64(len(r.host.calibs))},
		metric{wl.name, "host.measure_s", r.host.wall.Seconds(), "s", 1},
		metric{wl.name, "host.gc_cpu_frac", r.host.gcFrac, "ratio", 1},
	)
	if call0, ok := r.byKind[kindCall0]; ok {
		v := float64(call0.quantile(0.5))
		ms = append(ms,
			metric{wl.name, "core.call0_paper_cyc", paperCall0, "cycles", 1},
			metric{wl.name, "core.call0_err_pct", 100 * (v - paperCall0) / paperCall0, "%", call0.n},
		)
	}
	if r.spans != nil {
		if err := r.spans.write(o.traceDir); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return emit(out, summaryOf(r.attempted, r.failed, ms, endToEnd), ms)
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryOf builds a run's summary holding the named metrics.
func summaryOf(attempted, failed int, ms []metric, names []string) summary {
	s := summary{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]valueUnit{}}
	for _, name := range names {
		for _, m := range ms {
			if m.Metric == name {
				s.Metrics[name] = valueUnit{m.Value, m.Unit}
			}
		}
	}
	return s
}

// emit prints every metric line, then the summary.
func emit(out io.Writer, s summary, ms []metric) error {
	enc := json.NewEncoder(out)
	for _, m := range ms {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return enc.Encode(s)
}
