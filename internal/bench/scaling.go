package bench

import (
	"fmt"
	"strings"

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
	label := fmt.Sprintf("scaling/%s/%dc/b%d", w.Name, cores, batch)
	world := s.world(label, WorldConfig{Flavor: mk.SeL4, Cores: cores, SkyBridge: true})
	h := s.hist(label)
	k := world.K
	pl := k.Placement()
	shards := cores
	clients := cores

	// One store shard and one crypto shard per core; each shard preloads
	// the records it owns (ciphertext precomputed — the cipher is a pure
	// stream) and registers as its own SkyBridge server from its core.
	slotSize := 4 + 32 + 2*w.FieldLength
	nslots := 2*cfg.Records/shards + 128
	stores := kv.NewStoreShards(k, "kv", shards, nslots, slotSize)
	cryptos := kv.NewCryptoShards(k, "enc", shards)
	kvIDs := make([]int, shards)
	encIDs := make([]int, shards)
	var errs firstErr
	for i := range stores {
		i := i
		stores[i].Proc.Spawn("shard", pl.Core(i), func(env *mk.Env) {
			for r := int64(0); r < int64(cfg.Records); r++ {
				key := scalingKey(r)
				if kv.ShardOf(key, shards) != i {
					continue
				}
				val := kv.CipherStream([]byte(ycsb.RecordValue(w, r)))
				if err := stores[i].Preload(env, key, val); err != nil {
					errs.set(fmt.Errorf("shard %d preload: %w", i, err))
					return
				}
			}
			id, err := svc.RegisterSkyBridgeServer(world.SB, env, 2*clients, stores[i].Handler())
			if err != nil {
				errs.set(fmt.Errorf("shard %d register: %w", i, err))
				return
			}
			kvIDs[i] = id
		})
		cryptos[i].Proc.Spawn("shard", pl.Core(i), func(env *mk.Env) {
			id, err := svc.RegisterSkyBridgeServer(world.SB, env, 2*clients, cryptos[i].Handler())
			if err != nil {
				errs.set(fmt.Errorf("crypto shard %d register: %w", i, err))
				return
			}
			encIDs[i] = id
		})
	}
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	// Bind phase: client ci lives on core ci, uses the crypto shard local
	// to its core, and holds one connection per store shard (binding is
	// per-process, so the measurement thread reuses them).
	procs := make([]*mk.Process, clients)
	pipes := make([]*kv.Client, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		procs[ci] = k.NewProcess(fmt.Sprintf("cli%d", ci))
		text := procs[ci].Alloc(24 << 10)
		procs[ci].Spawn("bind", pl.Core(ci), func(env *mk.Env) {
			enc, err := svc.NewSkyBridge(world.SB, env, encIDs[ci%shards])
			if err != nil {
				errs.set(fmt.Errorf("client %d bind crypto: %w", ci, err))
				return
			}
			conns := make([]svc.Conn, shards)
			for i, id := range kvIDs {
				if conns[i], err = svc.NewSkyBridge(world.SB, env, id); err != nil {
					errs.set(fmt.Errorf("client %d bind shard %d: %w", ci, i, err))
					return
				}
			}
			pipes[ci] = &kv.Client{Enc: enc, KV: svc.NewSharded(conns, kv.PickReq(shards)), Text: text}
		})
	}
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	// Measurement: reset machine-wide counters, then drive the closed
	// loop — each client consumes its own deterministic YCSB stream in
	// rounds of up to B operations, reads and updates each submitted as
	// one batch (one crossing per touched shard).
	k.Mach.ResetStats()
	s.callSite(label).Obs.Reset() // breakdown covers the window, not binding
	baseCalls := make([]uint64, shards)
	for i, id := range kvIDs {
		if srv, ok := world.SB.Server(id); ok {
			baseCalls[i] = srv.Calls
		}
	}

	durations := make([]uint64, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		ops := cfg.TotalOps / clients
		if ci < cfg.TotalOps%clients {
			ops++
		}
		procs[ci].Spawn("drive", pl.Core(ci), func(env *mk.Env) {
			g := ycsb.NewGenerator(w, 1000+int64(ci))
			c := pipes[ci]
			start := env.Now()
			for done := 0; done < ops; {
				n := batch
				if left := ops - done; n > left {
					n = left
				}
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
					if err := c.InsertBatch(env, uKeys, uVals); err != nil {
						errs.set(fmt.Errorf("client %d update: %w", ci, err))
						return
					}
				}
				if len(rKeys) > 0 {
					if _, err := c.QueryBatch(env, rKeys); err != nil {
						errs.set(fmt.Errorf("client %d read: %w", ci, err))
						return
					}
				}
				h.Observe(env.Now() - t)
				done += n
			}
			durations[ci] = env.Now() - start
		})
	}
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	cell := &ScalingCell{
		Workload: w.Name, Cores: cores, Batch: batch,
		ClientCycles:   durations,
		BatchCrossings: world.SB.BatchCalls,
		DirectCalls:    world.SB.DirectCalls,
		SlotLoads:      world.RK.SlotLoads(),
		SlotEvictions:  world.RK.SlotEvictions(),
	}
	cell.Makespan, cell.OpsPerMcyc, cell.CyclesPerOp = closedLoop(durations, cfg.TotalOps)
	for i, id := range kvIDs {
		if srv, ok := world.SB.Server(id); ok {
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
	for i, c := range cell.ShardCalls {
		values[fmt.Sprintf("shard%d_calls", i)] = float64(c)
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
		Latency:     s.latencyOf(label),
		Breakdown:   s.breakdownOf(label),
	})
	return cell, nil
}

// cell looks up the sweep cell for (workload, cores).
func (r *ScalingResult) cell(workload string, cores int) *ScalingCell {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Cores == cores && c.Batch == r.Batch {
			return c
		}
	}
	return nil
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
