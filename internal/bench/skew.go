package bench

import (
	"errors"
	"fmt"
	"strings"

	"skybridge/internal/core"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// Adaptive placement under skew: a sharded KV store whose shards live in
// ONE server process behind several frontend drains (kv.NewStoreSet +
// kv.PlacedHandler), with a core.Director either frozen on the initial
// block placement ("static") or running the full adaptive stack
// ("adaptive"): load-aware shard migration under the epoch-stamped
// routing handoff, whole-tenant work stealing between sibling drains,
// and low/high-water core autoscaling (HLT park + IPI wake). Clients
// route every op through an svc.Router against the shared routing
// region, resubmitting the wrong-epoch rejects a migration strands in
// the old owner's ring.
//
// The request distributions are chosen to expose placement, not the
// store: keys partition onto shards by contiguous range, so a hotspot
// over the first quarter of the keyspace lands on the first drain's
// shards and a static placement serializes 90% of the load on one core.
// The sweep reports aggregate throughput per megacycle AND per busy
// megacycle (makespan minus gate-parked and idle-parked drain cycles),
// so scale-down shows up as efficiency instead of vanishing into idle
// cores.

// skewThink paces the trough cell's middle segment: one op per gap per
// client, low enough that the mean drain load falls under the low-water
// mark and the controller parks cores until the closed-loop tail
// returns.
const skewThink = 24_000

// The skew sweep's fixed shape: routing client processes, keyspace size
// (range-partitioned over 2*cores shards), and each client's closed-loop
// in-flight cap.
const (
	skewClients = 8
	skewRecords = 256
	skewWindow  = 8
)

// SkewConfig parameterizes the adaptive-placement sweep (seL4 flavor,
// skewClients clients over skewRecords keys, window skewWindow).
type SkewConfig struct {
	// ServerCores are the drain-core counts swept (default 4, 2). Every
	// dist runs on ServerCores[0]; the remaining counts run the hotspot
	// dist only (the headline adaptive-vs-static cell at each width).
	ServerCores []int
	// Dists are the load shapes swept (default uniform, hotspot,
	// shifting-hotspot, trough). "trough" is uniform keys with a paced
	// middle segment and a zipf-apportioned per-client op split — the
	// autoscaling cell.
	Dists []string
	// TotalOps is the aggregate operation count per cell (at least 1).
	TotalOps int
}

// SkewCell is one measured (dist, mode, serverCores) configuration.
type SkewCell struct {
	Dist        string `json:"dist"`
	Mode        string `json:"mode"`
	ServerCores int    `json:"server_cores"`
	Shards      int    `json:"shards"`
	Clients     int    `json:"clients"`
	Records     int    `json:"records"`
	TotalOps    int    `json:"total_ops"`

	OpsPerMcyc     float64 `json:"ops_per_mcyc"`
	BusyOpsPerMcyc float64 `json:"busy_ops_per_mcyc"`
	Makespan       uint64  `json:"makespan_cycles"`
	BusyCycles     uint64  `json:"busy_cycles"`

	// Placement-control accounting (core.Director).
	Migrations    uint64 `json:"migrations"`
	MigratedBytes uint64 `json:"migrated_bytes"`
	Steals        uint64 `json:"steals"`
	StolenOps     uint64 `json:"stolen_ops"`
	ScaleDowns    uint64 `json:"scale_downs"`
	ScaleUps      uint64 `json:"scale_ups"`
	HelpWakes     uint64 `json:"help_wakes"`
	ControlTicks  uint64 `json:"control_ticks"`
	WrongEpoch    uint64 `json:"wrong_epoch"`

	// Client-side routing accounting (svc.Router).
	Refreshes uint64 `json:"refreshes"`
	Retries   uint64 `json:"retries"`

	// Idle accounting behind BusyCycles.
	GateParkedCycles uint64 `json:"gate_parked_cycles"`
	IdleParkedCycles uint64 `json:"idle_parked_cycles"`

	// Per-quarter aggregate throughput (the shifting-hotspot dist moves
	// its hot window once per quarter; the minimum is the
	// across-the-jump throughput floor).
	PhaseOpsPerMcyc []float64 `json:"phase_ops_per_mcyc,omitempty"`
	MinPhaseTput    float64   `json:"min_phase_ops_per_mcyc,omitempty"`

	Latency *obs.Summary `json:"latency,omitempty"`
}

// SkewResult holds the sweep.
type SkewResult struct {
	ServerCores []int       `json:"server_cores"`
	Dists       []string    `json:"dists"`
	Clients     int         `json:"clients"`
	Records     int         `json:"records"`
	TotalOps    int         `json:"total_ops"`
	Cells       []*SkewCell `json:"cells"`
}

// Skew runs the sweep: each cell feeds a latency histogram
// "skew/<dist>/<mode>/<cores>c" and emits one Record.
func (s *Session) Skew(cfg SkewConfig) (*SkewResult, error) {
	if len(cfg.ServerCores) == 0 {
		cfg.ServerCores = []int{4, 2}
	}
	if len(cfg.Dists) == 0 {
		cfg.Dists = []string{ycsb.DistUniform, ycsb.DistHotspot, ycsb.DistShifting, "trough"}
	}
	if cfg.TotalOps < 1 {
		return nil, fmt.Errorf("skew: total ops %d must be at least 1", cfg.TotalOps)
	}
	res := &SkewResult{
		ServerCores: cfg.ServerCores, Dists: cfg.Dists,
		Clients: skewClients, Records: skewRecords, TotalOps: cfg.TotalOps,
	}
	type cellSpec struct {
		dist, mode string
		scores     int
	}
	var specs []cellSpec
	for i, sc := range cfg.ServerCores {
		for _, dist := range cfg.Dists {
			if i > 0 && dist != ycsb.DistHotspot {
				continue
			}
			for _, mode := range []string{"static", "adaptive"} {
				specs = append(specs, cellSpec{dist, mode, sc})
			}
		}
	}
	cells, err := sweep(s, specs, func(sub *Session, sp cellSpec) (*SkewCell, error) {
		return sub.runSkewCell(cfg, sp.dist, sp.mode, sp.scores)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// skewClientOps splits the cell's operations over clients: even for the
// steady dists, zipf(0.99)-apportioned for trough (the same
// largest-remainder split as the tenants sweep), so the paced segment
// has both near-idle clients and a hog to recover from.
func skewClientOps(dist string, clients, total int) []int {
	if dist == "trough" {
		return zipfApportion(total, clients, 0.99)
	}
	ops := make([]int, clients)
	for c := range ops {
		ops[c] = total / clients
	}
	return ops
}

// runSkewCell measures one (dist, mode, serverCores) configuration.
func (s *Session) runSkewCell(cfg SkewConfig, dist, mode string, serverCores int) (*SkewCell, error) {
	const clientCores = 4
	shards := 2 * serverCores
	label := fmt.Sprintf("skew/%s/%s/%dc", dist, mode, serverCores)
	world := s.world(label, WorldConfig{
		Flavor: mk.SeL4, Cores: serverCores + clientCores, SkyBridge: true,
	})
	k := world.K
	h := s.hist(label)

	opsOf := skewClientOps(dist, skewClients, cfg.TotalOps)
	totalOps := 0
	for _, o := range opsOf {
		totalOps += o
	}

	// Register phase: one process holds every shard store and every
	// frontend (stealing and migration need the shared address space);
	// keys range-partition onto shards so contiguous hot sets concentrate.
	perShard := (skewRecords + shards - 1) / shards
	shardOf := func(key int64) int {
		return int(key * int64(shards) / skewRecords)
	}
	server := k.NewProcess("placed")
	stores := kv.NewStoreSet(server, shards, 2*perShard+64, 4+16+48)
	fes := make([]*svc.Frontend, serverCores)
	coreFEs := make([]*core.Frontend, serverCores)
	var d *core.Director
	var errs firstErr
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		for j := int64(0); j < skewRecords; j++ {
			key := fmt.Sprintf("user%06d", j)
			val := fmt.Sprintf("value-%06d-%016d", j, 0)
			if err := stores[shardOf(j)].Preload(env, []byte(key), []byte(val)); err != nil {
				errs.set(fmt.Errorf("preload %d: %w", j, err))
				return
			}
		}
		for f := 0; f < serverCores; f++ {
			f := f
			ph := kv.PlacedHandler(stores, func(shard int) (bool, uint64) {
				ok, ep := d.Owns(f, shard)
				if !ok {
					d.NoteReject()
				}
				return ok, ep
			}, func(shard int) { d.NoteOp(shard) })
			fe, err := svc.NewFrontend(world.SB, env, skewClients+1, core.FrontendConfig{},
				func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
					return ph(env, req)
				})
			if err != nil {
				errs.set(fmt.Errorf("frontend %d: %w", f, err))
				return
			}
			fes[f] = fe
			coreFEs[f] = fe.FE
		}
		var err error
		d, err = world.SB.NewDirector(env, core.DirectorConfig{
			Shards:        shards,
			Static:        mode == "static",
			ControlPeriod: 20_000,
			LowWater:      1,
			HighWater:     6,
			Acquire: func(env *mk.Env, shard int) int {
				return stores[shard].MigrateWarm(env)
			},
			Obs: k.Mach.Obs,
		}, coreFEs)
		if err != nil {
			errs.set(fmt.Errorf("director: %w", err))
		}
	})
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	// Bind phase: each client opens a Router (one ring per drain plus the
	// read-only routing region).
	procs := make([]*mk.Process, skewClients)
	routers := make([]*svc.Router, skewClients)
	for c := 0; c < skewClients; c++ {
		procs[c] = k.NewProcess(fmt.Sprintf("cl%02d", c))
	}
	for c := 0; c < skewClients; c++ {
		c := c
		procs[c].Spawn("bind", k.Mach.Cores[serverCores+c%clientCores], func(env *mk.Env) {
			rt, err := svc.OpenRouter(env, d, fes, skewWindow, 2+16+48)
			if err != nil {
				errs.set(fmt.Errorf("client %d bind: %w", c, err))
				return
			}
			routers[c] = rt
		})
	}
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	// Measurement window.
	k.Mach.AlignClocks()
	k.Mach.ResetStats()

	for f, fe := range fes {
		f, fe := f, fe
		server.Spawn("drain", k.Mach.Cores[f], func(env *mk.Env) {
			if err := fe.Serve(env); err != nil {
				errs.set(fmt.Errorf("drain %d: %w", f, err))
			}
		})
	}
	durations := make([]uint64, skewClients)
	// phaseEnds[c][p] is when client c completed quarter p (the shifting
	// dist jumps its hot window once per quarter).
	phaseEnds := make([][4]uint64, skewClients)
	starts := make([]uint64, skewClients)
	remaining := skewClients
	for c := 0; c < skewClients; c++ {
		c := c
		myOps := opsOf[c]
		procs[c].Spawn("drive", k.Mach.Cores[serverCores+c%clientCores], func(env *mk.Env) {
			defer func() {
				if remaining--; remaining == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			rt := routers[c]
			w := ycsb.Workload{
				Name: "skew", RecordCount: skewRecords, FieldLength: 16,
				ReadProp: 0.75, UpdateProp: 0.25,
				RequestDist: dist, HotDataFrac: 0.25, HotOpFrac: 0.9,
				HotShiftEvery: (myOps + 3) / 4,
			}
			if dist == "trough" {
				w.RequestDist = ycsb.DistUniform
			}
			gen := ycsb.NewGenerator(w, int64(1000*serverCores+c)*2654435761%1e9)

			type pendingOp struct {
				key int64
				put bool
				seq int
				t0  uint64
			}
			fifos := make([][]pendingOp, serverCores)
			var retryQ []pendingOp
			inflight, submitted, completed := 0, 0, 0

			// Deterministic stagger so client first-ops do not stampede.
			env.Sleep(uint64(c) * 2654435761 % 4096 * skewThink / 4096)
			starts[c] = env.Now()

			submitOne := func(po pendingOp) error {
				key := fmt.Sprintf("user%06d", po.key)
				var req svc.Req
				if po.put {
					val := fmt.Sprintf("value-%06d-%016d", po.key, po.seq)
					req = svc.Req{Op: kv.OpPut, Data: kv.PutFrame([]byte(key), []byte(val))}
				} else {
					req = svc.Req{Op: kv.OpGet, Data: []byte(key)}
				}
				slot, err := rt.Submit(env, shardOf(po.key), req)
				if err != nil {
					return err
				}
				fifos[slot] = append(fifos[slot], po)
				inflight++
				return rt.Conns[slot].Flush(env)
			}
			reapSlot := func(slot int) error {
				cs, err := rt.Conns[slot].Ring.Reap(env, 1)
				if err != nil {
					return fmt.Errorf("client %d reap: %w", c, err)
				}
				for _, comp := range cs {
					po := fifos[slot][0]
					fifos[slot] = fifos[slot][1:]
					inflight--
					switch comp.Regs[0] {
					case kv.StatusOK, kv.StatusNotFound:
						lat := env.Now() - po.t0
						h.Observe(lat)
						completed++
						for p := 0; p < 4; p++ {
							if completed == (p+1)*myOps/4 {
								phaseEnds[c][p] = env.Now()
							}
						}
					case kv.StatusWrongEpoch:
						rt.NoteRetry()
						retryQ = append(retryQ, po)
					default:
						return fmt.Errorf("client %d op %d status %d", c, po.seq, comp.Regs[0])
					}
				}
				return nil
			}
			// reapOne blocks on the lowest drain slot holding one of this
			// client's in-flight ops.
			reapOne := func() error {
				for slot := range fifos {
					if len(fifos[slot]) > 0 {
						return reapSlot(slot)
					}
				}
				return nil
			}
			submitRetrying := func(po pendingOp) error {
				for {
					err := submitOne(po)
					if err == nil {
						return nil
					}
					if !errors.Is(err, core.ErrRingFull) {
						return err
					}
					if err := reapOne(); err != nil {
						return err
					}
				}
			}
			for completed < myOps {
				switch {
				case len(retryQ) > 0:
					po := retryQ[0]
					retryQ = retryQ[1:]
					if err := submitRetrying(po); err != nil {
						errs.set(err)
						return
					}
				case submitted < myOps && inflight < skewWindow:
					// The trough dist paces its middle segment open-loop:
					// the offered load collapses, the controller parks
					// cores, and the closed-loop tail brings them back.
					if dist == "trough" && submitted >= 2*myOps/5 && submitted < 3*myOps/5 {
						env.Sleep(skewThink)
					}
					op := gen.Next()
					po := pendingOp{key: op.Key, put: op.Kind == ycsb.OpUpdate, seq: submitted, t0: env.Now()}
					submitted++
					if err := submitRetrying(po); err != nil {
						errs.set(err)
						return
					}
				default:
					if err := reapOne(); err != nil {
						errs.set(err)
						return
					}
				}
			}
			durations[c] = env.Now() - starts[c]
		})
	}
	if err := world.run(&errs); err != nil {
		return nil, err
	}

	cell := &SkewCell{
		Dist: dist, Mode: mode, ServerCores: serverCores, Shards: shards,
		Clients: skewClients, Records: skewRecords, TotalOps: totalOps,
		Migrations: d.Migrations, MigratedBytes: d.MigratedBytes,
		Steals: d.Steals, StolenOps: d.StolenOps,
		ScaleDowns: d.ScaleDowns, ScaleUps: d.ScaleUps,
		HelpWakes: d.HelpWakes, ControlTicks: d.ControlTicks,
		WrongEpoch: d.WrongEpoch,
	}
	for _, rt := range routers {
		cell.Refreshes += rt.Refreshes
		cell.Retries += rt.Retries
	}
	for _, g := range d.Gates() {
		cell.GateParkedCycles += g.ParkedCycles
	}
	for _, fe := range fes {
		cell.IdleParkedCycles += fe.FE.IdleParkedCycles
	}
	cell.Makespan, cell.OpsPerMcyc, _ = closedLoop(durations, totalOps)
	if cell.Makespan > 0 {
		total := uint64(serverCores) * cell.Makespan
		idle := cell.GateParkedCycles + cell.IdleParkedCycles
		if idle > total {
			idle = total
		}
		cell.BusyCycles = total - idle
		if cell.BusyCycles > 0 {
			cell.BusyOpsPerMcyc = float64(totalOps) * 1e6 / float64(cell.BusyCycles)
		}
	}
	// Per-quarter throughput: quarter p spans the earliest start (quarter
	// 0) or the earliest previous-quarter completion to the latest
	// quarter-p completion across clients.
	cell.PhaseOpsPerMcyc = make([]float64, 4)
	for p := 0; p < 4; p++ {
		var begin, end uint64 = ^uint64(0), 0
		ops := 0
		for c := range phaseEnds {
			b := starts[c]
			if p > 0 {
				b = phaseEnds[c][p-1]
			}
			if b < begin {
				begin = b
			}
			if phaseEnds[c][p] > end {
				end = phaseEnds[c][p]
			}
			ops += (p+1)*opsOf[c]/4 - p*opsOf[c]/4
		}
		if end > begin {
			cell.PhaseOpsPerMcyc[p] = float64(ops) * 1e6 / float64(end-begin)
		}
		if p == 0 || cell.PhaseOpsPerMcyc[p] < cell.MinPhaseTput {
			cell.MinPhaseTput = cell.PhaseOpsPerMcyc[p]
		}
	}
	cell.Latency = s.latencyOf(label)

	values := map[string]float64{
		"ops_per_megacycle":      cell.OpsPerMcyc,
		"busy_ops_per_megacycle": cell.BusyOpsPerMcyc,
		"makespan_cycles":        float64(cell.Makespan),
		"busy_cycles":            float64(cell.BusyCycles),
		"ops_per_sec":            OpsPerSec(totalOps, cell.Makespan),
		"migrations":             float64(cell.Migrations),
		"migrated_bytes":         float64(cell.MigratedBytes),
		"steals":                 float64(cell.Steals),
		"stolen_ops":             float64(cell.StolenOps),
		"scale_downs":            float64(cell.ScaleDowns),
		"scale_ups":              float64(cell.ScaleUps),
		"help_wakes":             float64(cell.HelpWakes),
		"control_ticks":          float64(cell.ControlTicks),
		"wrong_epoch":            float64(cell.WrongEpoch),
		"refreshes":              float64(cell.Refreshes),
		"retries":                float64(cell.Retries),
		"gate_parked_cycles":     float64(cell.GateParkedCycles),
		"idle_parked_cycles":     float64(cell.IdleParkedCycles),
		"min_phase_ops_per_mcyc": cell.MinPhaseTput,
		"vmfuncs":                float64(k.Mach.Obs.SumSuffix(".vmfuncs")),
	}
	s.record(Record{
		Experiment: "skew",
		Config: map[string]string{
			"dist":         dist,
			"mode":         mode,
			"server_cores": fmt.Sprintf("%d", serverCores),
			"shards":       fmt.Sprintf("%d", shards),
			"clients":      fmt.Sprintf("%d", skewClients),
			"records":      fmt.Sprintf("%d", skewRecords),
			"ops":          fmt.Sprintf("%d", totalOps),
		},
		CyclesPerOp: float64(cell.Makespan) / float64(totalOps),
		Values:      values,
		Latency:     cell.Latency,
	})
	return cell, nil
}

// cell looks up (dist, mode, serverCores).
func (r *SkewResult) cell(dist, mode string, scores int) *SkewCell {
	for _, c := range r.Cells {
		if c.Dist == dist && c.Mode == mode && c.ServerCores == scores {
			return c
		}
	}
	return nil
}

// Render formats the sweep: static and adaptive throughput side by side
// with the adaptive speedup and the control actions that produced it.
func (r *SkewResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive placement under skew: %d clients, %d records, %d ops per cell\n",
		r.Clients, r.Records, r.TotalOps)
	fmt.Fprintf(&b, "%-17s %2s %9s %9s %6s %9s %5s %7s %5s %5s %7s\n",
		"dist", "c", "stat op/Mc", "adap op/Mc", "x", "busy op/Mc", "migr", "steals", "park", "wake", "rejects")
	for _, sc := range r.ServerCores {
		for _, dist := range r.Dists {
			st, ad := r.cell(dist, "static", sc), r.cell(dist, "adaptive", sc)
			if st == nil || ad == nil {
				continue
			}
			speedup := 0.0
			if st.OpsPerMcyc > 0 {
				speedup = ad.OpsPerMcyc / st.OpsPerMcyc
			}
			fmt.Fprintf(&b, "%-17s %2d %10.1f %10.1f %5.2fx %10.1f %5d %7d %5d %5d %7d\n",
				dist, sc, st.OpsPerMcyc, ad.OpsPerMcyc, speedup, ad.BusyOpsPerMcyc,
				ad.Migrations, ad.Steals, ad.ScaleDowns, ad.ScaleUps, ad.WrongEpoch)
		}
	}
	return b.String()
}
