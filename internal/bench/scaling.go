package bench

import (
	"fmt"
	"strings"

	"skybridge/internal/hw"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// Multicore scaling: the KV pipeline sharded per core — every core owns
// one store shard and one crypto shard, each registered as its own
// SkyBridge server — driven closed-loop by one client thread per core.
// A client routes each key to its shard (kv.ShardOf) and submits up to B
// requests per trampoline+VMFUNC crossing (core.DirectCallBatch), so the
// cost of the crossing amortizes over the batch; the EPTP slot LRU
// (hv/eptplru.go) sees the whole server fan-out. The experiment reports
// aggregate throughput in operations per simulated megacycle across core
// counts, plus a batching ablation (B=1 vs B>1) at the widest machine.

// scalingBatch is the batch size B of the scaling sweep's cells (bounded
// by core.MaxBatch); the ablation cell runs B=1.
const scalingBatch = 8

// ScalingConfig parameterizes the scaling sweep (seL4 flavor, batch size
// scalingBatch).
type ScalingConfig struct {
	// CoreCounts are the machine widths swept (default 1, 2, 4).
	CoreCounts []int
	// Workloads are the YCSB mixes driven (default A, B, C).
	Workloads []ycsb.Workload
	// Records is the preloaded keyspace size (spread over shards).
	Records int
	// TotalOps is the operation count per cell, split over the clients.
	TotalOps int
}

// ScalingCell is one measured configuration.
type ScalingCell struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Batch    int    `json:"batch"`

	// OpsPerMcyc is aggregate closed-loop throughput: total operations
	// over the makespan (slowest client's measured window), in ops per
	// simulated megacycle.
	OpsPerMcyc float64 `json:"ops_per_mcyc"`
	// CyclesPerOp is the amortized per-operation cost: the sum of all
	// clients' busy cycles over total operations (the batching-ablation
	// metric — unlike makespan it does not reward parallelism).
	CyclesPerOp float64 `json:"cycles_per_op"`
	// Makespan is the slowest client's measured window in cycles.
	Makespan uint64 `json:"makespan_cycles"`

	// ClientCycles is each client's measured window (one per core).
	ClientCycles []uint64 `json:"client_cycles"`
	// ShardCalls is each store shard's served direct calls.
	ShardCalls []uint64 `json:"shard_calls"`

	// Crossings vs. requests served over them (batching leverage).
	BatchCrossings uint64 `json:"batch_crossings"`
	DirectCalls    uint64 `json:"direct_calls"`
	// SlotLoads/SlotEvictions are the EPTP virtual-slot LRU counters.
	SlotLoads     uint64 `json:"slot_loads"`
	SlotEvictions uint64 `json:"slot_evictions"`
}

// ScalingResult holds the sweep plus the batching ablation.
type ScalingResult struct {
	Records    int            `json:"records"`
	TotalOps   int            `json:"total_ops"`
	Batch      int            `json:"batch"`
	CoreCounts []int          `json:"core_counts"`
	Workloads  []string       `json:"workloads"`
	Cells      []*ScalingCell `json:"cells"`
	// AblationB1 re-runs the first workload at the widest machine with
	// unbatched submission; its partner batched cell is in Cells.
	AblationB1 *ScalingCell `json:"ablation_b1"`
}

// Scaling runs the sweep: each cell feeds a per-batch latency histogram
// "scaling/<workload>/<cores>c/b<batch>" and emits one Record.
func (s *Session) Scaling(cfg ScalingConfig) (*ScalingResult, error) {
	if len(cfg.CoreCounts) == 0 {
		cfg.CoreCounts = []int{1, 2, 4}
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []ycsb.Workload{
			ycsb.WorkloadA(cfg.Records), ycsb.WorkloadB(cfg.Records), ycsb.WorkloadC(cfg.Records),
		}
	}
	res := &ScalingResult{
		Records: cfg.Records, TotalOps: cfg.TotalOps, Batch: scalingBatch,
		CoreCounts: cfg.CoreCounts,
	}
	// Every (workload, cores, batch) cell builds its own world, so the
	// sweep partitions into independent cells — the ablation cell (same
	// stack and workload, widest machine, one request per crossing) rides
	// along as the last cell.
	type cellSpec struct {
		w            ycsb.Workload
		cores, batch int
	}
	var specs []cellSpec
	for _, w := range cfg.Workloads {
		res.Workloads = append(res.Workloads, w.Name)
		for _, cores := range cfg.CoreCounts {
			specs = append(specs, cellSpec{w, cores, scalingBatch})
		}
	}
	wide := cfg.CoreCounts[len(cfg.CoreCounts)-1]
	specs = append(specs, cellSpec{cfg.Workloads[0], wide, 1})

	cells, err := sweep(s, specs, func(sub *Session, sp cellSpec) (*ScalingCell, error) {
		return sub.runScalingCell(cfg, sp.w, sp.cores, sp.batch)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells[:len(cells)-1]
	res.AblationB1 = cells[len(cells)-1]
	return res, nil
}

// scalingKey is the canonical record key (shared by preload and clients).
func scalingKey(i int64) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// runScalingCell measures one (workload, cores, batch) configuration.
func (s *Session) runScalingCell(cfg ScalingConfig, w ycsb.Workload, cores, batch int) (*ScalingCell, error) {
	c := s.newCell(fmt.Sprintf("scaling/%s/%dc/b%d", w.Name, cores, batch), WorldConfig{Flavor: mk.SeL4, Cores: cores, SkyBridge: true})
	k := c.K
	pl := k.Placement()
	shards := cores
	clients := cores

	// One store shard and one crypto shard per core; each store shard
	// preloads the records it owns (ciphertext precomputed — the cipher is
	// a pure stream), and both register as SkyBridge servers from its core.
	_, kvIDs, encIDs, err := c.kvShards(w, cfg.Records, shards, clients, true, pl.Core)
	if err != nil {
		return nil, err
	}

	// Bind phase: client ci lives on core ci, uses the crypto shard local
	// to its core, and holds one connection per store shard (binding is
	// per-process, so the measurement thread reuses them).
	procs := make([]*mk.Process, clients)
	texts := make([]hw.VA, clients)
	for ci := range procs {
		procs[ci] = k.NewProcess(fmt.Sprintf("cli%d", ci))
		texts[ci] = procs[ci].Alloc(24 << 10)
	}
	pipes := make([]*kv.Client, clients)
	if err := c.phase(procs, "bind", pl.Core, func(ci int, env *mk.Env) error {
		enc, err := svc.NewSkyBridge(c.SB, env, encIDs[ci%shards])
		if err != nil {
			return fmt.Errorf("client %d bind crypto: %w", ci, err)
		}
		sharded, err := c.bindShards(env, kvIDs)
		pipes[ci] = &kv.Client{Enc: enc, KV: sharded, Text: texts[ci]}
		return err
	}); err != nil {
		return nil, err
	}

	// Measurement: reset machine-wide counters, then drive the closed
	// loop — each client consumes its own deterministic YCSB stream in
	// rounds of up to B operations, reads and updates each submitted as
	// one batch (one crossing per touched shard). Unlike the ring sweeps,
	// this window has never aligned the core clocks; aligning them moves
	// every committed scaling cell. The breakdown covers the window, not
	// binding.
	c.open(false, c.label)
	baseCalls := make([]uint64, shards)
	for i, id := range kvIDs {
		if srv, ok := c.SB.Server(id); ok {
			baseCalls[i] = srv.Calls
		}
	}
	durations, err := c.drive(procs, pl.Core, nil, func(ci int, env *mk.Env) error {
		g := ycsb.NewGenerator(w, 1000+int64(ci))
		for done, ops := 0, opShare(cfg.TotalOps, clients, ci); done < ops; {
			n := min(batch, ops-done)
			var rKeys, uKeys, uVals [][]byte
			for j := 0; j < n; j++ {
				op := g.Next()
				switch op.Kind {
				case ycsb.OpRead:
					rKeys = append(rKeys, scalingKey(op.Key))
				case ycsb.OpUpdate:
					uKeys = append(uKeys, scalingKey(op.Key))
					uVals = append(uVals, []byte(op.Value))
				}
			}
			t := env.Now()
			if len(uKeys) > 0 {
				if err := pipes[ci].InsertBatch(env, uKeys, uVals); err != nil {
					return fmt.Errorf("client %d update: %w", ci, err)
				}
			}
			if len(rKeys) > 0 {
				if _, err := pipes[ci].QueryBatch(env, rKeys); err != nil {
					return fmt.Errorf("client %d read: %w", ci, err)
				}
			}
			c.h.Observe(env.Now() - t)
			done += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cell := &ScalingCell{
		Workload: w.Name, Cores: cores, Batch: batch,
		ClientCycles:   durations,
		BatchCrossings: c.SB.BatchCalls,
		DirectCalls:    c.SB.DirectCalls,
		SlotLoads:      c.RK.SlotLoads,
		SlotEvictions:  c.RK.SlotEvictions,
	}
	cell.Makespan, cell.OpsPerMcyc, cell.CyclesPerOp = closedLoop(durations, cfg.TotalOps)
	for i, id := range kvIDs {
		if srv, ok := c.SB.Server(id); ok {
			cell.ShardCalls = append(cell.ShardCalls, srv.Calls-baseCalls[i])
		}
	}

	reg := k.Mach.Obs
	values := map[string]float64{
		"ops_per_megacycle":   cell.OpsPerMcyc,
		"amortized_cycles_op": cell.CyclesPerOp,
		"makespan_cycles":     float64(cell.Makespan),
		"ops_per_sec":         OpsPerSec(cfg.TotalOps, cell.Makespan),
		"batch_crossings":     float64(cell.BatchCrossings),
		"direct_calls":        float64(cell.DirectCalls),
		"eptp_slot_loads":     float64(cell.SlotLoads),
		"eptp_slot_evictions": float64(cell.SlotEvictions),
		"vmfuncs":             float64(reg.SumSuffix(".vmfuncs")),
		"l1d_misses":          float64(reg.SumSuffix(".L1D.misses")),
		"l1i_misses":          float64(reg.SumSuffix(".L1I.misses")),
		"l2_misses":           float64(reg.SumSuffix(".L2.misses")),
		"l3_misses":           float64(reg.Value("L3.misses")),
	}
	for i, d := range durations {
		values[fmt.Sprintf("client%d_cycles", i)] = float64(d)
	}
	for i, n := range cell.ShardCalls {
		values[fmt.Sprintf("shard%d_calls", i)] = float64(n)
	}
	s.record(Record{
		Experiment: "scaling",
		Config: map[string]string{
			"workload": w.Name,
			"cores":    fmt.Sprintf("%d", cores),
			"batch":    fmt.Sprintf("%d", batch),
			"records":  fmt.Sprintf("%d", cfg.Records),
			"ops":      fmt.Sprintf("%d", cfg.TotalOps),
		},
		CyclesPerOp: cell.CyclesPerOp,
		Values:      values,
		Latency:     s.latencyOf(c.label),
		Breakdown:   s.breakdownOf(c.label),
	})
	return cell, nil
}

// cell looks up the sweep cell for (workload, cores).
func (r *ScalingResult) cell(workload string, cores int) *ScalingCell {
	return find(r.Cells, func(c *ScalingCell) bool { return c.Workload == workload && c.Cores == cores && c.Batch == r.Batch })
}

// Render formats the scaling table and the batching ablation.
func (r *ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multicore scaling: per-core shards + batched SkyBridge calls (B=%d, %d records, %d ops)\n",
		r.Batch, r.Records, r.TotalOps)
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, n := range r.CoreCounts {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d-core op/Mc", n))
	}
	first, last := r.CoreCounts[0], r.CoreCounts[len(r.CoreCounts)-1]
	fmt.Fprintf(&b, " %8s\n", fmt.Sprintf("%dc/%dc", last, first))
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "%-10s", w)
		for _, n := range r.CoreCounts {
			if c := r.cell(w, n); c != nil {
				fmt.Fprintf(&b, " %14.1f", c.OpsPerMcyc)
			}
		}
		cf, cl := r.cell(w, first), r.cell(w, last)
		if cf != nil && cl != nil && cf.OpsPerMcyc > 0 {
			fmt.Fprintf(&b, " %7.2fx", cl.OpsPerMcyc/cf.OpsPerMcyc)
		}
		fmt.Fprintln(&b)
	}
	if b1 := r.AblationB1; b1 != nil {
		if bn := r.cell(b1.Workload, b1.Cores); bn != nil {
			fmt.Fprintf(&b, "Batching ablation (%s, %d cores): B=1 %.0f cyc/op, B=%d %.0f cyc/op (%.2fx)\n",
				b1.Workload, b1.Cores, b1.CyclesPerOp, r.Batch, bn.CyclesPerOp,
				b1.CyclesPerOp/bn.CyclesPerOp)
		}
	}
	return b.String()
}
