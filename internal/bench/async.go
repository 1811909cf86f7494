package bench

import (
	"fmt"
	"strings"

	"skybridge/internal/core"
	"skybridge/internal/hw"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// Asynchronous IPC: the sharded KV store driven through submission/
// completion rings (core.AsyncRing) instead of per-operation direct
// calls. The machine splits into client cores and shard cores; each shard
// runs a poll thread (core.RingServer) draining its clients' rings, so
// the handler work overlaps the clients' marshalling instead of running
// on their threads. The sweep measures closed-loop throughput across
// queue depths and core counts against a synchronous DirectCall baseline
// on the identical topology — the QD=1 cells isolate the cost of the
// ring machinery itself, the deep cells its pipelining benefit, and the
// doorbell/wakeup counters attribute every crossing and IPI the adaptive
// policy did or did not take.

// AsyncConfig parameterizes the asynchronous sweep (seL4 flavor).
type AsyncConfig struct {
	// CoreCounts are the machine widths swept (default 1, 2, 4).
	CoreCounts []int
	// Workloads are the YCSB mixes driven (default A, C).
	Workloads []ycsb.Workload
	// Records is the preloaded keyspace size (spread over shards).
	Records int
	// TotalOps is the operation count per cell, split over the clients.
	TotalOps int
	// Depths are the ring queue depths swept (default 1, 2, 8, 32).
	Depths []int
}

// AsyncCell is one measured configuration. Mode "sync" cells have QD 0.
type AsyncCell struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Mode     string `json:"mode"`
	QD       int    `json:"qd"`

	// OpsPerMcyc is aggregate closed-loop throughput over the makespan;
	// CyclesPerOp the sum of client busy cycles over total operations.
	OpsPerMcyc  float64 `json:"ops_per_mcyc"`
	CyclesPerOp float64 `json:"cycles_per_op"`
	Makespan    uint64  `json:"makespan_cycles"`

	ClientCycles []uint64 `json:"client_cycles"`

	// Crossing accounting: sync cells take one crossing per op
	// (DirectCalls); async cells take none per op (RingOps) and only
	// doorbell when a server sleeps.
	DirectCalls uint64 `json:"direct_calls"`
	wakeCounters

	// Ring occupancy over the run (mean/max of per-submit depth).
	DepthMean float64 `json:"depth_mean,omitempty"`
	DepthMax  uint64  `json:"depth_max,omitempty"`

	// Depth digests the per-submit ring-depth distribution, every client
	// ring's registry histogram merged (async cells only).
	Depth *obs.Summary `json:"depth,omitempty"`
	// Breakdown is the per-call phase attribution of the measurement
	// window (internal/obs taxonomy: crossing, ring_wait, service,
	// wakeup_delivery, client_spin, reap_delay).
	Breakdown *obs.BreakdownSummary `json:"breakdown,omitempty"`
}

// AsyncResult holds the sweep.
type AsyncResult struct {
	Records    int          `json:"records"`
	TotalOps   int          `json:"total_ops"`
	CoreCounts []int        `json:"core_counts"`
	Depths     []int        `json:"depths"`
	Workloads  []string     `json:"workloads"`
	Cells      []*AsyncCell `json:"cells"`
}

// Async runs the sweep: each cell feeds a per-op latency histogram
// "async/<workload>/<cores>c/<mode>" and emits one Record.
func (s *Session) Async(cfg AsyncConfig) (*AsyncResult, error) {
	if len(cfg.CoreCounts) == 0 {
		cfg.CoreCounts = []int{1, 2, 4}
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []ycsb.Workload{ycsb.WorkloadA(cfg.Records), ycsb.WorkloadC(cfg.Records)}
	}
	if len(cfg.Depths) == 0 {
		cfg.Depths = []int{1, 2, 8, 32}
	}
	res := &AsyncResult{
		Records: cfg.Records, TotalOps: cfg.TotalOps,
		CoreCounts: cfg.CoreCounts, Depths: cfg.Depths,
	}
	// Every (workload, cores, qd) cell — the sync baseline is qd 0 —
	// builds its own world, so the sweep partitions into independent
	// cells.
	type cellSpec struct {
		w         ycsb.Workload
		cores, qd int
	}
	var specs []cellSpec
	for _, w := range cfg.Workloads {
		res.Workloads = append(res.Workloads, w.Name)
		for _, cores := range cfg.CoreCounts {
			specs = append(specs, cellSpec{w, cores, 0})
			for _, qd := range cfg.Depths {
				specs = append(specs, cellSpec{w, cores, qd})
			}
		}
	}
	cells, err := sweep(s, specs, func(sub *Session, sp cellSpec) (*AsyncCell, error) {
		return sub.runAsyncCell(cfg, sp.w, sp.cores, sp.qd)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// asyncTopology splits a machine between clients and shards: half the
// cores each (shards on the upper half), degenerating to one of each
// sharing the single core of a 1-core machine.
func asyncTopology(cores int) (clients, shards int) {
	shards = cores / 2
	if shards == 0 {
		shards = 1
	}
	clients = cores - shards
	if clients == 0 {
		clients = 1
	}
	return clients, shards
}

// runAsyncCell measures one (workload, cores, qd) configuration; qd 0 is
// the synchronous DirectCall baseline on the identical topology.
func (s *Session) runAsyncCell(cfg AsyncConfig, w ycsb.Workload, cores, qd int) (*AsyncCell, error) {
	mode := "sync"
	if qd > 0 {
		mode = fmt.Sprintf("qd%d", qd)
	}
	c := s.newCell(fmt.Sprintf("async/%s/%dc/%s", w.Name, cores, mode), WorldConfig{Flavor: mk.SeL4, Cores: cores, SkyBridge: true})
	k := c.K
	pl := k.Placement()
	clients, shards := asyncTopology(cores)
	shardCore := func(i int) *hw.CPU { return pl.Core(clients + i) }

	// Register phase: one store shard per shard core, preloaded with the
	// records it owns (plain values — no crypto stage; this experiment
	// isolates the transport).
	stores, kvIDs, _, err := c.kvShards(w, cfg.Records, shards, clients, false, shardCore)
	if err != nil {
		return nil, err
	}
	pol := mk.WakePolicy{}
	ringServers := make([]*core.RingServer, 0, shards)
	if qd > 0 {
		for _, id := range kvIDs {
			rs, err := c.SB.NewRingServer(id, pol)
			if err != nil {
				return nil, err
			}
			ringServers = append(ringServers, rs)
		}
	}

	// Bind phase: client ci on core ci, one connection (sync) or ring
	// (async) per shard.
	procs := make([]*mk.Process, clients)
	for ci := range procs {
		procs[ci] = k.NewProcess(fmt.Sprintf("cli%d", ci))
	}
	syncKVs := make([]*svc.Sharded, clients)
	asyncKVs := make([]*kv.AsyncKV, clients)
	if err := c.phase(procs, "bind", pl.Core, func(ci int, env *mk.Env) error {
		if qd == 0 {
			var err error
			syncKVs[ci], err = c.bindShards(env, kvIDs)
			return err
		}
		rings := make([]*svc.AsyncConn, shards)
		for i, id := range kvIDs {
			var err error
			if rings[i], err = svc.OpenAsync(c.SB, env, id, qd, kvSlot(w)+64, pol); err != nil {
				return fmt.Errorf("client %d ring to shard %d: %w", ci, i, err)
			}
		}
		asyncKVs[ci] = kv.NewAsyncKV(rings)
		return nil
	}); err != nil {
		return nil, err
	}

	// Measurement: align the core clocks (setup charged unevenly — boot
	// and binding on core 0, preloading on the shard cores — and a skewed
	// start would bill the whole offset to the first cross-core completion
	// wait), reset machine-wide counters, then run the poll threads
	// (async) and the closed-loop clients together. The last client to
	// drain closes the poll loops so the engine can retire them.
	c.open(true, c.label) // the breakdown covers the window, not binding
	for i, rs := range ringServers {
		c.serve(stores[i].Proc, "poll", shardCore(i), rs)
	}
	durations, err := c.drive(procs, pl.Core, nil, func(ci int, env *mk.Env) error {
		// issue runs one op to completion (sync) or submits it and reaps
		// whatever has completed (async).
		issue := func(op ycsb.Op) ([]svc.Resp, error) {
			if qd == 0 {
				resp, err := syncKVs[ci].Invoke(env, asyncReq(op))
				return []svc.Resp{resp}, err
			}
			a := asyncKVs[ci]
			var err error
			if op.Kind == ycsb.OpUpdate {
				err = a.SubmitPut(env, scalingKey(op.Key), []byte(op.Value))
			} else {
				err = a.SubmitGet(env, scalingKey(op.Key))
			}
			if err == nil {
				err = a.FlushAll(env)
			}
			if err != nil {
				return nil, err
			}
			return a.Reap(env)
		}
		ops, completed := opShare(cfg.TotalOps, clients, ci), 0
		check := func(resps []svc.Resp, err error) error {
			if err != nil {
				return err
			}
			for _, r := range resps {
				if err := kv.CheckResp(r); err != nil {
					return err
				}
				completed++
			}
			return nil
		}
		g := ycsb.NewGenerator(w, 1000+int64(ci))
		for done := 0; done < ops; done++ {
			t := env.Now()
			if err := check(issue(g.Next())); err != nil {
				return fmt.Errorf("client %d op %d: %w", ci, done, err)
			}
			c.h.Observe(env.Now() - t)
		}
		if qd > 0 {
			if err := check(asyncKVs[ci].Drain(env)); err != nil {
				return fmt.Errorf("client %d drain: %w", ci, err)
			}
		}
		if completed != ops {
			return fmt.Errorf("client %d completed %d of %d ops", ci, completed, ops)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cell := &AsyncCell{
		Workload: w.Name, Cores: cores, Mode: mode, QD: qd,
		ClientCycles: durations,
		DirectCalls:  c.SB.DirectCalls,
		wakeCounters: readWake(c.World),
	}
	cell.Makespan, cell.OpsPerMcyc, cell.CyclesPerOp = closedLoop(durations, cfg.TotalOps)
	if qd > 0 {
		// Merge every client ring's per-submit depth histogram into the
		// session registry (label + "/depth") so the sweep's occupancy
		// distribution lands in the metrics document, and digest it into
		// the cell for BENCH_async.json.
		depth := s.hist(c.label + "/depth")
		for _, a := range asyncKVs {
			for _, ring := range a.Rings {
				depth.Merge(ring.Ring.Depth())
			}
		}
		if depth.Count() > 0 {
			cell.DepthMean = float64(depth.Sum()) / float64(depth.Count())
			cell.DepthMax = depth.Max()
			ds := depth.Summary()
			cell.Depth = &ds
		}
	}
	cell.Breakdown = s.breakdownOf(c.label)

	reg := k.Mach.Obs
	values := map[string]float64{
		"ops_per_megacycle":  cell.OpsPerMcyc,
		"cycles_per_op":      cell.CyclesPerOp,
		"makespan_cycles":    float64(cell.Makespan),
		"ops_per_sec":        OpsPerSec(cfg.TotalOps, cell.Makespan),
		"direct_calls":       float64(cell.DirectCalls),
		"depth_mean":         cell.DepthMean,
		"depth_max":          float64(cell.DepthMax),
		"vmfuncs":            float64(reg.SumSuffix(".vmfuncs")),
		"l1d_misses":         float64(reg.SumSuffix(".L1D.misses")),
		"spin_cycles_parked": float64(k.SpinCycles),
	}
	cell.wakeCounters.addTo(values)
	for i, d := range durations {
		values[fmt.Sprintf("client%d_cycles", i)] = float64(d)
	}
	s.record(Record{
		Experiment: "async",
		Config: map[string]string{
			"workload": w.Name,
			"cores":    fmt.Sprintf("%d", cores),
			"mode":     mode,
			"qd":       fmt.Sprintf("%d", qd),
			"records":  fmt.Sprintf("%d", cfg.Records),
			"ops":      fmt.Sprintf("%d", cfg.TotalOps),
		},
		CyclesPerOp: cell.CyclesPerOp,
		Values:      values,
		Latency:     s.latencyOf(c.label),
		Breakdown:   cell.Breakdown,
	})
	return cell, nil
}

// asyncReq converts a YCSB op to a store request (sync path).
func asyncReq(op ycsb.Op) svc.Req {
	if op.Kind == ycsb.OpUpdate {
		return svc.Req{Op: kv.OpPut, Data: kv.PutFrame(scalingKey(op.Key), []byte(op.Value))}
	}
	return svc.Req{Op: kv.OpGet, Data: scalingKey(op.Key)}
}

// cell looks up (workload, cores, mode).
func (r *AsyncResult) cell(workload string, cores int, mode string) *AsyncCell {
	return find(r.Cells, func(c *AsyncCell) bool { return c.Workload == workload && c.Cores == cores && c.Mode == mode })
}

// Render formats the sweep: throughput per queue depth against the sync
// baseline, with the best-depth speedup per row.
func (r *AsyncResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Asynchronous IPC: submission/completion rings vs sync DirectCall (%d records, %d ops)\n",
		r.Records, r.TotalOps)
	fmt.Fprintf(&b, "%-10s %5s %12s", "workload", "cores", "sync op/Mc")
	for _, qd := range r.Depths {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("qd%d op/Mc", qd))
	}
	fmt.Fprintf(&b, " %8s\n", "best")
	for _, w := range r.Workloads {
		for _, cores := range r.CoreCounts {
			sync := r.cell(w, cores, "sync")
			if sync == nil {
				continue
			}
			fmt.Fprintf(&b, "%-10s %5d %12.1f", w, cores, sync.OpsPerMcyc)
			best := 0.0
			for _, qd := range r.Depths {
				c := r.cell(w, cores, fmt.Sprintf("qd%d", qd))
				if c == nil {
					fmt.Fprintf(&b, " %11s", "-")
					continue
				}
				fmt.Fprintf(&b, " %11.1f", c.OpsPerMcyc)
				if c.OpsPerMcyc > best {
					best = c.OpsPerMcyc
				}
			}
			if sync.OpsPerMcyc > 0 {
				fmt.Fprintf(&b, " %7.2fx", best/sync.OpsPerMcyc)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
