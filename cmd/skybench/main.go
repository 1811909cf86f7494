// Command skybench regenerates the tables and figures of the SkyBridge
// paper's evaluation (EuroSys'19, §6) on the simulated substrate.
//
// Usage:
//
//	skybench -run all
//	skybench -run table1,table2,fig7
//	skybench -run fig9 -records 10000 -ops 200
//	skybench -run table2 -trace trace.json -metrics metrics.json
//
// Experiments: table1 table2 table4 table5 table6 fig2 fig7 fig8 fig9
// fig10 fig11 ablations scaling async dbscale tenants skew (-list prints
// them with one-line descriptions). Paper-scale knobs, each at least 1:
// -records, -ops, -kvops, -clients, -opskind, -preload, -scale, -tenants.
//
// -benchout <kind>=<path> runs a standalone benchmark and writes its JSON
// document. Repeatable. The kinds are host (the wall-clock of each
// selected experiment run serially, and of the selection run on -j
// workers) plus the kind of every catalog unit that declares one
// (bench.Experiment.Bench): scaling (multicore sweep), async (ring
// queue-depth sweep), db (SQLite/FS lock-and-fast-path sweep), tenants
// (multi-tenant frontend sweep), skew (adaptive placement under skew).
// A unit's kind runs it at the paper-scale knobs, prints its table, and
// writes its result.
//
// -j N runs experiment units and their independent cells on N workers. It
// changes only host wall-clock: simulated results, stdout, metrics, trace,
// and report are byte-identical for every N.
//
// -trace writes a Chrome trace-event JSON (open in Perfetto / chrome://
// tracing; 1 timestamp unit = 1 simulated cycle, one track per simulated
// core), including flow arrows that stitch each call's causal chain
// across cores. -metrics writes every experiment's machine-readable
// records plus per-op latency histograms. -report prints the per-call
// phase-breakdown table (p50/p90/p99/p99.9 per phase, flight-recorder
// tail dumps) and writes it as JSON; both -report outputs are
// byte-deterministic for any -j.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"skybridge/internal/bench"
	"skybridge/internal/obs"
)

// experimentNames is the authoritative list of experiment selectors, in
// catalog order.
var experimentNames = bench.ExperimentNames()

// selectExperiments parses the -run list into a selection set. Unknown
// names are an error (previously they were silently ignored when mixed
// with valid ones). "all" expands to every experiment.
func selectExperiments(runList string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, n := range experimentNames {
		known[n] = true
	}
	sel := map[string]bool{}
	var unknown []string
	for _, raw := range strings.Split(runList, ",") {
		name := strings.TrimSpace(strings.ToLower(raw))
		if name == "" {
			continue
		}
		if name == "all" {
			for _, n := range experimentNames {
				sel[n] = true
			}
			continue
		}
		if !known[name] {
			unknown = append(unknown, name)
			continue
		}
		sel[name] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(experimentNames, " "))
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("no experiments selected from %q (known: %s)",
			runList, strings.Join(experimentNames, " "))
	}
	return sel, nil
}

// knob is one paper-scale flag, bound to a field of bench.Options.
type knob struct {
	name  string
	p     *int
	usage string
}

// knobs returns the paper-scale flags bound to o's fields.
func knobs(o *bench.Options) []knob {
	return []knob{
		{"records", &o.Records, "YCSB records per client (paper: 10000)"},
		{"ops", &o.Ops, "YCSB operations per client thread"},
		{"kvops", &o.KVOps, "KV-store operations per configuration"},
		{"clients", &o.Clients, "SQLite clients (Table 4)"},
		{"opskind", &o.OpsPerKind, "SQLite ops per kind per client (Table 4)"},
		{"preload", &o.Preload, "SQLite preloaded rows per client (Table 4)"},
		{"scale", &o.Scale, "Table 6 corpus scale divisor (1 = paper scale)"},
		{"tenants", &o.Tenants, "multi-tenant sweep population ceiling (clips the 64/256/1024 ladder)"},
	}
}

// checkKnobs rejects the first paper-scale knob below 1. Each counts
// records, operations, clients or tenants, or divides Table 6's corpus;
// below 1 the experiments hang, panic, or quietly run a default instead.
func checkKnobs(o bench.Options) error {
	for _, k := range knobs(&o) {
		if *k.p < 1 {
			return fmt.Errorf("-%s %d: must be at least 1", k.name, *k.p)
		}
	}
	return nil
}

func main() {
	opts := bench.DefaultOptions
	for _, k := range knobs(&opts) {
		flag.IntVar(k.p, k.name, *k.p, k.usage)
	}
	var (
		list    = flag.Bool("list", false, "print the experiment names, one per line, and exit")
		runList = flag.String("run", "all", "comma-separated experiments (or 'all')")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON to this file")
		metricsOut = flag.String("metrics", "", "write machine-readable experiment records (JSON) to this file")
		reportOut  = flag.String("report", "", "write the per-call phase-breakdown report (JSON) to this file and print its table")

		jobs = flag.Int("j", 1, "run experiments (and their independent cells) on N parallel workers (output stays in declaration order, byte-identical for any N)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	)
	benchOuts := map[string]string{}
	flag.Func("benchout", "run a standalone benchmark and write its JSON: <kind>=<path>, kind one of "+strings.Join(benchKinds, "|")+" (repeatable)",
		func(v string) error { return parseBenchOut(benchOuts, v) })
	flag.Parse()

	if *list {
		for _, u := range bench.ExperimentInfo() {
			fmt.Printf("%-10s %s\n", u.Name, u.Desc)
		}
		return
	}

	if err := checkKnobs(opts); err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		flag.Usage()
		os.Exit(2)
	}

	bench.SetJobs(*jobs)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	sel, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		flag.Usage()
		os.Exit(2)
	}

	if len(benchOuts) > 0 {
		if *reportOut != "" || *traceOut != "" || *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "skybench: note: -report/-trace/-metrics apply to experiment runs (-run), not -benchout; ignoring them")
		}
		if err := runBenchOuts(benchOuts, sel, opts, *jobs); err != nil {
			fatal(err)
		}
		return
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	s := bench.NewSession(tracer)
	if err := bench.RunAll(sel, opts, *jobs, s, os.Stdout); err != nil {
		fatal(err)
	}

	if *reportOut != "" {
		rep := s.BuildReport()
		fmt.Print(rep.Render())
		if err := writeFile(*reportOut, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}
	if d := s.TotalDropped(); d > 0 {
		// Loud and last: a lossy trace silently invalidates flow chains
		// and the report's tail dumps.
		fmt.Fprintf(os.Stderr, "skybench: WARNING: trace buffers dropped %d events — flow chains and -report dumps are incomplete (raise obs.DefaultEventCap)\n", d)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, s.WriteMetrics); err != nil {
			fatal(err)
		}
	}
}

// benchKinds lists the -benchout kinds in run order: host, then every
// catalog unit's Bench kind in catalog order.
var benchKinds = func() []string {
	kinds := []string{"host"}
	for _, u := range bench.Catalog() {
		if u.Bench != "" {
			kinds = append(kinds, u.Bench)
		}
	}
	return kinds
}()

// parseBenchOut parses one -benchout value (<kind>=<path>) into outs,
// rejecting unknown kinds and duplicate keys.
func parseBenchOut(outs map[string]string, v string) error {
	kind, path, ok := strings.Cut(v, "=")
	if !ok || path == "" {
		return fmt.Errorf("want <kind>=<path>, got %q", v)
	}
	kind = strings.ToLower(strings.TrimSpace(kind))
	if !slices.Contains(benchKinds, kind) {
		return fmt.Errorf("unknown benchmark kind %q (%s)", kind, strings.Join(benchKinds, ", "))
	}
	if prev, dup := outs[kind]; dup {
		return fmt.Errorf("duplicate -benchout kind %q (already writing %s)", kind, prev)
	}
	outs[kind] = path
	return nil
}

// runBenchOuts runs the requested standalone benchmarks in benchKinds
// order and writes each result where -benchout asked: each catalog kind
// runs its unit in a throwaway session, prints the unit's table, and
// writes the unit's result as JSON.
func runBenchOuts(outs map[string]string, sel map[string]bool, opts bench.Options, jobs int) error {
	if path, ok := outs["host"]; ok {
		if err := runHostBench(path, sel, opts, jobs); err != nil {
			return err
		}
	}
	for _, u := range bench.Catalog() {
		path, ok := outs[u.Bench]
		if u.Bench == "" || !ok {
			continue
		}
		r, err := u.Run(bench.NewSession(nil), opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		if err := writeFile(path, func(w io.Writer) error { return bench.WriteJSON(w, r) }); err != nil {
			return err
		}
	}
	return nil
}

// runHostBench times each selected experiment serially, one RunAll per
// experiment in catalog order in one session (so Table 5 reuses Figure 9's
// cells, as in a full run), then the whole selection on jobs workers, and
// writes the result as BENCH_host.json. Simulated results are identical in
// every run; only host wall-clock differs.
func runHostBench(path string, sel map[string]bool, opts bench.Options, jobs int) error {
	if jobs <= 1 {
		jobs = runtime.NumCPU()
	}
	res := bench.HostBenchResult{
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		ExperimentSec: map[string]float64{},
		Jobs:          float64(jobs),
	}

	// Restore the flag-derived worker count afterwards, so later -benchout
	// kinds run under the configuration the user asked for.
	prevJobs := bench.SetJobs(1)
	defer bench.SetJobs(prevJobs)

	run := func(sel map[string]bool, j int, s *bench.Session) (float64, error) {
		bench.SetJobs(j)
		start := time.Now()
		err := bench.RunAll(sel, opts, j, s, io.Discard)
		return time.Since(start).Seconds(), err
	}
	serial := bench.NewSession(nil)
	for _, name := range experimentNames {
		if !sel[name] {
			continue
		}
		sec, err := run(map[string]bool{name: true}, 1, serial)
		if err != nil {
			return err
		}
		res.Experiments = append(res.Experiments, name)
		res.ExperimentSec[name] = sec
		res.SerialSec += sec
	}
	var err error
	if res.ParallelSec, err = run(sel, jobs, bench.NewSession(nil)); err != nil {
		return err
	}
	res.ParallelSpeedup = res.SerialSec / res.ParallelSec
	return writeFile(path, func(w io.Writer) error { return bench.WriteJSON(w, res) })
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skybench:", err)
	os.Exit(1)
}
