package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// Options carries the paper-scale knobs of the experiment catalog (the
// skybench flags).
type Options struct {
	Records    int // YCSB records per client
	Ops        int // YCSB operations per client thread
	KVOps      int // KV-store operations per configuration
	Clients    int // SQLite clients (Table 4)
	OpsPerKind int // SQLite ops per kind per client (Table 4)
	Preload    int // SQLite preloaded rows per client (Table 4)
	Scale      int // Table 6 corpus scale divisor
	Tenants    int // multi-tenant sweep population ceiling
}

// DefaultOptions are skybench's flag defaults, the scale every committed
// BENCH_<kind>.json was generated at.
var DefaultOptions = Options{
	Records: 1000, Ops: 60, KVOps: 512,
	Clients: 4, OpsPerKind: 40, Preload: 200,
	Scale: 8, Tenants: 1024,
}

// Result is one experiment unit's outcome; Render formats it for stdout.
type Result interface{ Render() string }

// Experiment is one independently runnable unit of the evaluation: it
// builds its own worlds inside the Session it is handed, so units never
// share simulated state and can run on parallel workers. Units sharing a
// Name are selected together (table4 has one unit per flavor); Label is
// unique within the catalog.
type Experiment struct {
	Name  string
	Label string
	// Desc is the one-line description skybench -list prints next to the
	// selector; units sharing a Name share it.
	Desc string
	// Bench, when set, is the skybench -benchout kind that writes the
	// unit's Result as a JSON document (BENCH_<Bench>.json).
	Bench string
	Run   func(s *Session, o Options) (Result, error)
}

// Catalog returns the experiment units in declaration order — the order
// skybench has always printed its output in, which RunAll preserves for
// any worker count.
func Catalog() []Experiment {
	units := []Experiment{
		{Name: "table2", Label: "table2", Desc: "per-call IPC cost breakdown vs the paper's Table 2", Run: func(s *Session, o Options) (Result, error) {
			return s.Table2(), nil
		}},
		{Name: "fig7", Label: "fig7", Desc: "IPC round-trip latency microbenchmark (Figure 7)", Run: func(s *Session, o Options) (Result, error) {
			return s.Figure7(), nil
		}},
		{Name: "table1", Label: "table1", Desc: "KV-store pipeline per-op cost across transports (Table 1)", Run: func(s *Session, o Options) (Result, error) {
			return s.Table1(), nil
		}},
		{Name: "fig2", Label: "fig2", Desc: "KV-store throughput without SkyBridge (Figure 2)", Run: func(s *Session, o Options) (Result, error) {
			return s.Figure2(o.KVOps), nil
		}},
		{Name: "fig8", Label: "fig8", Desc: "KV-store throughput over SkyBridge (Figure 8)", Run: func(s *Session, o Options) (Result, error) {
			return s.Figure8(o.KVOps), nil
		}},
	}
	for _, fl := range []mk.Flavor{mk.SeL4, mk.Fiasco, mk.Zircon} {
		fl := fl
		units = append(units, Experiment{
			Name: "table4", Label: "table4/" + fl.String(),
			Desc: "three-tier SQLite stack ops across kernel flavors (Table 4)",
			Run: func(s *Session, o Options) (Result, error) {
				return s.Table4(Table4Config{
					Flavor: fl, Clients: o.Clients, OpsPerKind: o.OpsPerKind, Preload: o.Preload,
				})
			},
		})
	}
	for _, f := range []struct {
		name   string
		flavor mk.Flavor
	}{{"fig9", mk.SeL4}, {"fig10", mk.Fiasco}, {"fig11", mk.Zircon}} {
		f := f
		units = append(units, Experiment{
			Name: f.name, Label: f.name,
			Desc: "YCSB on the SQLite stack, one kernel flavor each (Figures 9-11)",
			Run: func(s *Session, o Options) (Result, error) {
				return s.Figure9to11(YCSBConfig{Flavor: f.flavor, Records: o.Records, Ops: o.Ops})
			},
		})
	}
	units = append(units,
		Experiment{Name: "table5", Label: "table5", Desc: "YCSB latency percentiles on the SQLite stack (Table 5)", Run: func(s *Session, o Options) (Result, error) {
			return s.Table5(o.Records, o.Ops)
		}},
		Experiment{Name: "table6", Label: "table6", Desc: "inadvertent-VMFUNC binary scan (Table 6)", Run: func(s *Session, o Options) (Result, error) {
			return s.Table6(o.Scale)
		}},
		Experiment{Name: "ablations", Label: "ablations", Desc: "design-choice ablations from DESIGN.md", Run: func(s *Session, o Options) (Result, error) {
			return s.Ablations(), nil
		}},
		Experiment{Name: "scaling", Label: "scaling", Bench: "scaling", Desc: "multicore KV scaling sweep (cores x batch)", Run: func(s *Session, o Options) (Result, error) {
			return s.Scaling(ScalingConfig{Records: o.Records, TotalOps: o.KVOps})
		}},
		Experiment{Name: "async", Label: "async", Bench: "async", Desc: "async ring queue-depth sweep over one connection", Run: func(s *Session, o Options) (Result, error) {
			return s.Async(AsyncConfig{Records: o.Records, TotalOps: o.KVOps})
		}},
		Experiment{Name: "dbscale", Label: "dbscale", Bench: "db", Desc: "SQLite/FS lock granularity and fast-path sweep", Run: func(s *Session, o Options) (Result, error) {
			return s.DBScale(DBScaleConfig{Records: max(1, o.Records/4), OpsPerClient: o.Ops})
		}},
		Experiment{Name: "tenants", Label: "tenants", Bench: "tenants", Desc: "multi-tenant frontend sweep (rings + directory drain)", Run: func(s *Session, o Options) (Result, error) {
			return s.Tenants(TenantsConfig{MaxTenants: o.Tenants})
		}},
		Experiment{Name: "skew", Label: "skew", Bench: "skew", Desc: "adaptive placement under skew: migration + stealing + autoscaling", Run: func(s *Session, o Options) (Result, error) {
			return s.Skew(SkewConfig{TotalOps: 8 * o.KVOps})
		}},
	)
	return units
}

// ExperimentNames returns the distinct selector names in catalog order.
func ExperimentNames() []string {
	var names []string
	for _, u := range ExperimentInfo() {
		names = append(names, u.Name)
	}
	return names
}

// ExperimentInfo returns (name, description) pairs for the distinct
// selector names in catalog order — what skybench -list prints.
func ExperimentInfo() []Experiment {
	var units []Experiment
	seen := map[string]bool{}
	for _, u := range Catalog() {
		if !seen[u.Name] {
			seen[u.Name] = true
			units = append(units, u)
		}
	}
	return units
}

// cellJobs is the worker count for sub-experiment parallelism: the five
// sweeps (scaling, async, dbscale, tenants, skew), Figures 9-11, Table 5
// and the table6 corpus scan partition their independent cells onto this
// many workers, so one big experiment no longer serializes a whole core.
// skybench sets it once from -j before anything runs (SetJobs); results
// are byte-identical for any value.
var cellJobs = 1

// SetJobs sets the worker count used inside experiments that partition
// into independent cells, returning the previous setting. Values below 1
// clamp to 1 (serial).
func SetJobs(n int) int {
	prev := cellJobs
	if n < 1 {
		n = 1
	}
	cellJobs = n
	return prev
}

// sweep runs one experiment cell per spec on the package worker pool
// (SetJobs), each in its own sub-Session (newSub), and merges the
// sub-sessions into s strictly in spec order. Because Merge reproduces a
// serial run byte-for-byte, the session state after sweep is identical
// for any worker count. It returns the cells in spec order.
//
// run must build all simulated state inside the sub-session it is handed.
func sweep[S, C any](s *Session, specs []S, run func(sub *Session, spec S) (C, error)) ([]C, error) {
	cells := make([]C, len(specs))
	subs := make([]*Session, len(specs))
	errs := make([]error, len(specs))
	err := runOrdered(len(specs), cellJobs, func(i int) {
		subs[i] = s.newSub()
		cells[i], errs[i] = run(subs[i], specs[i])
	}, func(i int) error {
		if errs[i] != nil {
			return errs[i]
		}
		s.Merge(subs[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// closedLoop digests the per-client measured windows of a closed-loop
// cell that ran ops operations: the makespan (slowest client), aggregate
// throughput over it in ops per simulated megacycle, and the amortized
// cost, every client's busy cycles over ops.
func closedLoop(durations []uint64, ops int) (makespan uint64, opsPerMcyc, cyclesPerOp float64) {
	var sum uint64
	for _, d := range durations {
		sum += d
		makespan = max(makespan, d)
	}
	if makespan > 0 {
		opsPerMcyc = float64(ops) * 1e6 / float64(makespan)
	}
	if ops > 0 {
		cyclesPerOp = float64(sum) / float64(ops)
	}
	return makespan, opsPerMcyc, cyclesPerOp
}

// wakeCounters are the ring-crossing and adaptive-wakeup counts of a
// ring-driven cell's measurement window (both sides' waits).
type wakeCounters struct {
	// Doorbells cross into a sleeping server; DoorbellsSkipped counts the
	// ones the server was awake for.
	RingOps          uint64 `json:"ring_ops"`
	Doorbells        uint64 `json:"doorbells"`
	DoorbellsSkipped uint64 `json:"doorbells_skipped"`

	SpinWakes  uint64 `json:"spin_wakes"`
	Parks      uint64 `json:"parks"`
	LocalWakes uint64 `json:"local_wakes"`
	IPIWakes   uint64 `json:"ipi_wakes"`
	IPIs       uint64 `json:"ipis"`
}

// readWake reads w's ring and wakeup counters. Every one is bound into
// the machine registry, so the Machine.ResetStats that opens a
// measurement window zeroes them, and at the window's close they are the
// window's counts.
func readWake(w *World) wakeCounters {
	return wakeCounters{
		RingOps:          w.SB.RingOps,
		Doorbells:        w.SB.RingDoorbells,
		DoorbellsSkipped: w.SB.RingDoorbellsSkipped,
		SpinWakes:        w.K.SpinWakes,
		Parks:            w.K.Parks,
		LocalWakes:       w.K.LocalWakes,
		IPIWakes:         w.K.IPIWakes,
		IPIs:             w.K.Mach.Obs.Value("machine.ipis"),
	}
}

// addTo writes the counts into a Record's values under their JSON names.
func (c wakeCounters) addTo(values map[string]float64) {
	values["ring_ops"] = float64(c.RingOps)
	values["doorbells"] = float64(c.Doorbells)
	values["doorbells_skipped"] = float64(c.DoorbellsSkipped)
	values["spin_wakes"] = float64(c.SpinWakes)
	values["parks"] = float64(c.Parks)
	values["local_wakes"] = float64(c.LocalWakes)
	values["ipi_wakes"] = float64(c.IPIWakes)
	values["ipis"] = float64(c.IPIs)
}

// WriteJSON writes v as an indented JSON document with a trailing newline,
// the format of every BENCH_*.json file, -metrics and -report.
func WriteJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// runOrdered calls work(i) for every i in [0, n) on min(jobs, n) workers
// (at least one), and calls emit(i) on the calling goroutine strictly in
// index order, as soon as work(i) and every earlier work call have
// returned. emit may be nil. The first emit error stops further emits and
// is returned once every work call has finished.
func runOrdered(n, jobs int, work func(i int), emit func(i int) error) error {
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	idxCh := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			idxCh <- i
		}
		close(idxCh)
	}()
	var wg sync.WaitGroup
	for w := max(1, min(jobs, n)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				work(i)
				close(done[i])
			}
		}()
	}
	var err error
	for i := 0; i < n; i++ {
		<-done[i]
		if err == nil && emit != nil {
			err = emit(i)
		}
	}
	wg.Wait()
	return err
}

// newSub returns a fresh sub-session for one independent unit of work —
// own worlds, own registry, and its own sub-tracer when s traces — to be
// folded back with Merge. It shares s's paper-cell memo.
func (s *Session) newSub() *Session {
	var t *obs.Tracer
	if s.Trace != nil {
		t = obs.NewTracer()
		t.EventCap = s.Trace.EventCap
	}
	sub := NewSession(t)
	sub.memo = s.memo
	return sub
}

// Merge folds a completed sub-session into s: records append in call
// order, histograms merge exactly (obs.Histogram.Merge), call sites
// append in creation order, and the sub-tracer's processes are adopted
// with continued pid numbering. Merging
// per-experiment sessions in declaration order therefore reproduces a
// serial single-session run byte-for-byte.
func (s *Session) Merge(sub *Session) {
	s.recs = append(s.recs, sub.recs...)
	s.Reg.MergeHistograms(sub.Reg)
	for _, cs := range sub.calls {
		if i, ok := s.callIdx[cs.Label]; ok {
			// Label collision (units never produce one in practice): fold
			// the breakdowns exactly; the first site's flight dumps win.
			s.calls[i].Obs.Breakdown.Merge(cs.Obs.Breakdown)
			continue
		}
		s.callIdx[cs.Label] = len(s.calls)
		s.calls = append(s.calls, cs)
	}
	if s.Trace != nil && sub.Trace != nil {
		s.Trace.Adopt(sub.Trace)
	}
}

// RunAll runs the selected catalog units (sel nil selects everything) on a
// pool of jobs workers, each unit in its own sub-Session (newSub), and
// merges results into master strictly in declaration order, streaming each
// unit's rendered output to out (which may be nil) as soon as all earlier
// units have been emitted.
//
// Attribution is per-unit, never per-worker, so the merged output is
// byte-identical for every worker count, including 1.
func RunAll(sel map[string]bool, o Options, jobs int, master *Session, out io.Writer) error {
	var units []Experiment
	for _, u := range Catalog() {
		if sel == nil || sel[u.Name] {
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		return fmt.Errorf("bench: no experiments selected")
	}
	subs := make([]*Session, len(units))
	outs := make([]string, len(units))
	errs := make([]error, len(units))
	return runOrdered(len(units), jobs, func(i int) {
		subs[i] = master.newSub()
		var r Result
		if r, errs[i] = units[i].Run(subs[i], o); errs[i] == nil {
			outs[i] = r.Render()
		}
	}, func(i int) error {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", units[i].Label, errs[i])
		}
		master.Merge(subs[i])
		if out != nil {
			fmt.Fprintln(out, outs[i])
		}
		return nil
	})
}
