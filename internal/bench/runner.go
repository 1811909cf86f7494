package bench

import (
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
	Run  func(s *Session, o Options) (string, error)
}

// Catalog returns the experiment units in declaration order — the order
// skybench has always printed its output in, which RunAll preserves for
// any worker count.
func Catalog() []Experiment {
	units := []Experiment{
		{Name: "table2", Label: "table2", Desc: "per-call IPC cost breakdown vs the paper's Table 2", Run: func(s *Session, o Options) (string, error) {
			return s.Table2().Render(), nil
		}},
		{Name: "fig7", Label: "fig7", Desc: "IPC round-trip latency microbenchmark (Figure 7)", Run: func(s *Session, o Options) (string, error) {
			return s.Figure7().Render(), nil
		}},
		{Name: "table1", Label: "table1", Desc: "KV-store pipeline per-op cost across transports (Table 1)", Run: func(s *Session, o Options) (string, error) {
			return s.Table1().Render(), nil
		}},
		{Name: "fig2", Label: "fig2", Desc: "KV-store throughput without SkyBridge (Figure 2)", Run: func(s *Session, o Options) (string, error) {
			return s.Figure2(o.KVOps).Render(), nil
		}},
		{Name: "fig8", Label: "fig8", Desc: "KV-store throughput over SkyBridge (Figure 8)", Run: func(s *Session, o Options) (string, error) {
			return s.Figure8(o.KVOps).Render(), nil
		}},
	}
	for _, fl := range []mk.Flavor{mk.SeL4, mk.Fiasco, mk.Zircon} {
		fl := fl
		units = append(units, Experiment{
			Name: "table4", Label: "table4/" + fl.String(),
			Desc: "three-tier SQLite stack ops across kernel flavors (Table 4)",
			Run: func(s *Session, o Options) (string, error) {
				r, err := s.Table4(Table4Config{
					Flavor: fl, Clients: o.Clients, OpsPerKind: o.OpsPerKind, Preload: o.Preload,
				})
				if err != nil {
					return "", err
				}
				return r.Render(), nil
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
			Run: func(s *Session, o Options) (string, error) {
				r, err := s.Figure9to11(YCSBConfig{Flavor: f.flavor, Records: o.Records, Ops: o.Ops})
				if err != nil {
					return "", err
				}
				return r.Render(), nil
			},
		})
	}
	units = append(units,
		Experiment{Name: "table5", Label: "table5", Desc: "YCSB latency percentiles on the SQLite stack (Table 5)", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Table5(o.Records, o.Ops)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "table6", Label: "table6", Desc: "inadvertent-VMFUNC binary scan (Table 6)", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Table6(o.Scale)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "ablations", Label: "ablations", Desc: "design-choice ablations from DESIGN.md", Run: func(s *Session, o Options) (string, error) {
			return RenderAblations(s.Ablations()), nil
		}},
		Experiment{Name: "scaling", Label: "scaling", Desc: "multicore KV scaling sweep (cores x batch)", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Scaling(ScalingConfig{Records: o.Records, TotalOps: o.KVOps})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "async", Label: "async", Desc: "async ring queue-depth sweep over one connection", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Async(AsyncConfig{Records: o.Records, TotalOps: o.KVOps})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "dbscale", Label: "dbscale", Desc: "SQLite/FS lock granularity and fast-path sweep", Run: func(s *Session, o Options) (string, error) {
			r, err := s.DBScale(DBScaleConfig{Records: o.Records / 4, OpsPerClient: o.Ops})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "tenants", Label: "tenants", Desc: "multi-tenant frontend sweep (rings + directory drain)", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Tenants(TenantsConfig{MaxTenants: o.Tenants})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		Experiment{Name: "skew", Label: "skew", Desc: "adaptive placement under skew: migration + stealing + autoscaling", Run: func(s *Session, o Options) (string, error) {
			r, err := s.Skew(SkewConfig{TotalOps: 8 * o.KVOps})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	)
	return units
}

// ExperimentNames returns the distinct selector names in catalog order.
func ExperimentNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, u := range Catalog() {
		if !seen[u.Name] {
			seen[u.Name] = true
			names = append(names, u.Name)
		}
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

// cellJobs is the worker count for sub-experiment parallelism: the sweep
// experiments (scaling, async) and the table6 corpus scan partition their
// independent cells onto this many workers, so one big experiment no
// longer serializes a whole core. The driver sets it once from -j before
// anything runs (SetJobs); results are byte-identical for any value.
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

// runCells runs n independent experiment cells on the package worker pool
// (SetJobs), each in its own sub-Session (newSub), and merges the
// sub-sessions into s strictly in index order. Because Merge reproduces a
// serial run byte-for-byte, the session state after runCells is identical
// for any worker count; with one worker the cells run directly against s,
// no sub-sessions.
//
// run must build all simulated state inside the sub-session it is handed
// and write any host-side result into an index-addressed slot (never
// append to shared slices).
func runCells(s *Session, n int, run func(sub *Session, i int) error) error {
	if min(cellJobs, n) <= 1 {
		for i := 0; i < n; i++ {
			if err := run(s, i); err != nil {
				return err
			}
		}
		return nil
	}
	subs := make([]*Session, n)
	errs := make([]error, n)
	return runOrdered(n, cellJobs, func(i int) {
		subs[i] = s.newSub()
		errs[i] = run(subs[i], i)
	}, func(i int) error {
		if errs[i] != nil {
			return errs[i]
		}
		s.Merge(subs[i])
		return nil
	})
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
// folded back with Merge.
func (s *Session) newSub() *Session {
	var t *obs.Tracer
	if s.Trace != nil {
		t = obs.NewTracer()
		t.EventCap = s.Trace.EventCap
	}
	return NewSession(t)
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
		outs[i], errs[i] = units[i].Run(subs[i], o)
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
