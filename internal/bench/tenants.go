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
)

// Multi-tenant frontend sweep: N mutually-distrusting tenants (own
// process, calling key, EPTP binding, and keyspace prefix each) drive a
// KV store through per-tenant rings that one drain thread per server
// core multiplexes via the ring-of-rings directory (core.Frontend). Each
// tenant is an open-loop paced client: fixed operations issued one per
// think-time gap, so the offered load grows linearly with the tenant
// count while the per-tenant rate stays constant — the regime where the
// directory (O(words) idle skipping), the doorbell policy (crossing only
// into a sleeping drain), and DRR fairness (zipfian-hot tenants capped
// by credit and deficit) are what the measurement exposes. Zipfian cells
// concentrate the same total load zipf(0.99)-style; tenants whose share
// exceeds twice the uniform share run greedy closed-loop at full credit
// instead, and the hot and cold classes are attributed separately
// (per-ring obs.CallObserver override) so the report shows exactly where
// a cold tenant's p99 goes when a hog moves in.

// tenantThink is the uniform per-tenant gap between operations: each
// tenant offers 1/tenantThink ops per cycle, so aggregate offered load
// scales with the tenant count (64 -> ~21 op/Mc, 1024 -> ~341 op/Mc).
const tenantThink = 3_000_000

// tenantKeys is each tenant's keyspace size (preloaded server-side).
const tenantKeys = 4

// TenantsConfig parameterizes the multi-tenant sweep (seL4 flavor).
type TenantsConfig struct {
	// TenantCounts are the tenant populations swept (default 64, 256,
	// 1024, clipped to MaxTenants when set).
	TenantCounts []int
	// MaxTenants clips TenantCounts (the -tenants flag; 0 = no clip).
	MaxTenants int
	// ServerCores are the drain-core counts swept (default 1, 2, 4); one
	// frontend + store per server core, tenants assigned round-robin.
	ServerCores []int
	// Dists are the load shapes swept (default uniform, zipfian).
	Dists []string
	// OpsPerTenant is the uniform per-tenant operation count (zipfian
	// cells redistribute tenants*OpsPerTenant zipf(0.99)-style).
	OpsPerTenant int
}

// TenantsCell is one measured (tenants, serverCores, dist) configuration.
type TenantsCell struct {
	Tenants     int    `json:"tenants"`
	ServerCores int    `json:"server_cores"`
	Dist        string `json:"dist"`
	TotalOps    int    `json:"total_ops"`
	Credit      int    `json:"credit"`
	Quantum     int    `json:"quantum"`
	HotTenants  int    `json:"hot_tenants"`

	OpsPerMcyc  float64 `json:"ops_per_mcyc"`
	CyclesPerOp float64 `json:"cycles_per_op"`
	Makespan    uint64  `json:"makespan_cycles"`

	// Ring, doorbell and wakeup accounting (drain + tenant reap waits).
	wakeCounters
	SpinCycles uint64 `json:"spin_cycles_parked"`

	// Directory/drain accounting, summed over the cell's frontends.
	Sweeps         uint64 `json:"sweeps"`
	FullSweeps     uint64 `json:"full_sweeps"`
	TailPolls      uint64 `json:"tail_polls"`
	TenantsVisited uint64 `json:"tenants_visited"`
	TenantsSkipped uint64 `json:"tenants_skipped"`
	PollCycles     uint64 `json:"poll_cycles"`
	ServiceCycles  uint64 `json:"service_cycles"`

	// Per-class end-to-end latency (submit -> completion reaped) and
	// phase attribution. Uniform cells have no hot class.
	ColdP99       uint64                `json:"cold_p99"`
	HotP99        uint64                `json:"hot_p99,omitempty"`
	Latency       *obs.Summary          `json:"latency,omitempty"`
	BreakdownCold *obs.BreakdownSummary `json:"breakdown_cold,omitempty"`
	BreakdownHot  *obs.BreakdownSummary `json:"breakdown_hot,omitempty"`
}

// TenantsResult holds the sweep.
type TenantsResult struct {
	OpsPerTenant int            `json:"ops_per_tenant"`
	TenantCounts []int          `json:"tenant_counts"`
	ServerCores  []int          `json:"server_cores"`
	Dists        []string       `json:"dists"`
	Cells        []*TenantsCell `json:"cells"`
}

// Tenants runs the sweep: each cell feeds per-class latency histograms
// "tenants/<dist>/<tenants>t/<cores>c{,/hot,/cold}" and emits one Record.
func (s *Session) Tenants(cfg TenantsConfig) (*TenantsResult, error) {
	if len(cfg.TenantCounts) == 0 {
		cfg.TenantCounts = []int{64, 256, 1024}
	}
	if cfg.MaxTenants > 0 {
		var counts []int
		for _, n := range cfg.TenantCounts {
			if n <= cfg.MaxTenants {
				counts = append(counts, n)
			}
		}
		if len(counts) == 0 {
			counts = []int{cfg.MaxTenants}
		}
		cfg.TenantCounts = counts
	}
	if len(cfg.ServerCores) == 0 {
		cfg.ServerCores = []int{1, 2, 4}
	}
	if len(cfg.Dists) == 0 {
		cfg.Dists = []string{"uniform", "zipfian"}
	}
	if cfg.OpsPerTenant == 0 {
		cfg.OpsPerTenant = 8
	}
	res := &TenantsResult{
		OpsPerTenant: cfg.OpsPerTenant,
		TenantCounts: cfg.TenantCounts, ServerCores: cfg.ServerCores, Dists: cfg.Dists,
	}
	type cellSpec struct {
		tenants, scores int
		dist            string
	}
	var specs []cellSpec
	for _, dist := range cfg.Dists {
		for _, n := range cfg.TenantCounts {
			for _, sc := range cfg.ServerCores {
				specs = append(specs, cellSpec{n, sc, dist})
			}
		}
	}
	cells, err := sweep(s, specs, func(sub *Session, sp cellSpec) (*TenantsCell, error) {
		return sub.runTenantsCell(cfg, sp.tenants, sp.scores, sp.dist)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// tenantOps splits the cell's total operations over tenants: uniform
// gives every tenant OpsPerTenant; zipfian redistributes the same total
// by zipf(0.99) rank weight (largest-remainder rounding, one op
// minimum), so tenant 0 is the hog and the tail stays cold.
func tenantOps(dist string, tenants, perTenant int) []int {
	if dist != "zipfian" {
		ops := make([]int, tenants)
		for t := range ops {
			ops[t] = perTenant
		}
		return ops
	}
	return zipfApportion(tenants*perTenant, tenants, 0.99)
}

// runTenantsCell measures one (tenants, serverCores, dist) configuration.
func (s *Session) runTenantsCell(cfg TenantsConfig, tenants, serverCores int, dist string) (*TenantsCell, error) {
	const clientCores = 4
	c := s.newCell(fmt.Sprintf("tenants/%s/%dt/%dc", dist, tenants, serverCores), WorldConfig{
		Flavor: mk.SeL4, Cores: serverCores + clientCores, SkyBridge: true,
	})
	k := c.K
	hotSite, coldSite := s.callSite(c.label+"/hot"), s.callSite(c.label+"/cold")
	hotHist, coldHist := s.hist(c.label+"/hot"), s.hist(c.label+"/cold")
	tenantCore := func(t int) *hw.CPU { return k.Mach.Cores[serverCores+t%clientCores] }

	opsOf := tenantOps(dist, tenants, cfg.OpsPerTenant)
	totalOps := 0
	for _, o := range opsOf {
		totalOps += o
	}
	// Hot class: more than twice the uniform share — those run greedy
	// closed-loop at full credit; the cold class paces one op per think
	// gap sized so every cold tenant spans the same window.
	hot := func(t int) bool { return opsOf[t] > 2*cfg.OpsPerTenant }
	hotTenants := 0
	for t := range opsOf {
		if hot(t) {
			hotTenants++
		}
	}
	think := func(t int) uint64 { return uint64(cfg.OpsPerTenant) * tenantThink / uint64(opsOf[t]) }

	// Register phase: one frontend + tenant-guarded store per server
	// core; tenant t belongs to frontend t % serverCores, its keyspace
	// preloaded under its prefix. The drain's wake policy spins longer on
	// larger directories: parking costs an O(tenants) pre-park tail
	// rescan, so the spin budget scales with the rings a park re-checks.
	perFE := (tenants + serverCores - 1) / serverCores
	pol := mk.WakePolicy{SpinBudget: mk.DefaultSpinBudget + 16*uint64(perFE)}
	nslots := 2*tenantKeys*perFE + 128
	stores := kv.NewStoreShards(k, "fe", serverCores, nslots, 4+32+2*32)
	fes := make([]*svc.Frontend, serverCores)
	// Ring tenant IDs are per-frontend (open order); the keyspace prefixes
	// carry the global tenant number. localToGlobal translates between the
	// two for the guard — filled once the bind phase fixes the open order.
	localToGlobal := make([][]int, serverCores)
	for f := range stores {
		localToGlobal[f] = make([]int, perFE+1)
		c.spawn(stores[f].Proc, "reg", k.Mach.Cores[f], func(env *mk.Env) error {
			for t := f; t < tenants; t += serverCores {
				for j := 0; j < tenantKeys; j++ {
					key := kv.TenantKey(t, fmt.Sprintf("k%d", j))
					val := []byte(fmt.Sprintf("value-%04d-%02d-%024d", t, j, 0))
					if err := stores[f].Preload(env, []byte(key), val); err != nil {
						return fmt.Errorf("frontend %d preload tenant %d: %w", f, t, err)
					}
				}
			}
			guard := kv.TenantGuard(stores[f].Handler())
			var err error
			fes[f], err = svc.NewFrontend(c.SB, env, perFE+1, core.FrontendConfig{Pol: pol},
				func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
					return guard(env, localToGlobal[f][tenant], req)
				})
			if err != nil {
				return fmt.Errorf("frontend %d: %w", f, err)
			}
			return nil
		})
	}
	if err := c.settle(); err != nil {
		return nil, err
	}

	// Bind phase: every tenant in its own process, rings opened in tenant
	// order (tenant IDs are per-frontend open order). Hot rings attribute
	// to the hot call site, cold to the cold one.
	procs := make([]*mk.Process, tenants)
	for t := range procs {
		procs[t] = k.NewProcess(fmt.Sprintf("t%04d", t))
	}
	conns := make([]*svc.TenantConn, tenants)
	if err := c.phase(procs, "bind", tenantCore, func(t int, env *mk.Env) error {
		var err error
		if conns[t], err = fes[t%serverCores].OpenTenant(env, 0, 2+64); err != nil {
			return fmt.Errorf("tenant %d bind: %w", t, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for t := 0; t < tenants; t++ {
		localToGlobal[t%serverCores][conns[t].Tenant] = t
		site := coldSite
		if hot(t) {
			site = hotSite
		}
		conns[t].Ring.SetObserver(site.Obs)
	}

	// Measurement window.
	c.open(true, c.label, hotSite.Label, coldSite.Label)
	for f, fe := range fes {
		c.serve(stores[f].Proc, "drain", k.Mach.Cores[f], fe)
	}
	// Each tenant starts after a deterministic stagger, so tenant
	// first-ops do not stampede.
	stagger := func(t int) uint64 { return uint64(t) * 2654435761 % 4096 * think(t) / 4096 }
	durations, err := c.drive(procs, tenantCore, stagger, func(t int, env *mk.Env) error {
		ops := opsOf[t]
		classHist := coldHist
		if hot(t) {
			classHist = hotHist
		}
		tc := conns[t]
		qd := tc.Ring.QD
		t0s := make([]uint64, qd)
		submitted, completed := 0, 0
		observe := func(cs []core.Completion) error {
			for _, comp := range cs {
				if comp.Regs[0] != kv.StatusOK && comp.Regs[0] != kv.StatusNotFound {
					return fmt.Errorf("tenant %d status %d", t, comp.Regs[0])
				}
				lat := env.Now() - t0s[comp.Seq%uint32(qd)]
				classHist.Observe(lat)
				c.h.Observe(lat)
				completed++
			}
			return nil
		}
		submit := func() error {
			t0s[uint32(submitted)%uint32(qd)] = env.Now()
			var req svc.Req
			key := kv.TenantKey(t, fmt.Sprintf("k%d", submitted%tenantKeys))
			if submitted%4 == 3 {
				val := fmt.Sprintf("value-%04d-%02d-%024d", t, submitted%tenantKeys, submitted)
				req = svc.Req{Op: kv.OpPut, Data: kv.PutFrame([]byte(key), []byte(val))}
			} else {
				req = svc.Req{Op: kv.OpGet, Data: []byte(key)}
			}
			if err := tc.Submit(env, req); err != nil {
				return fmt.Errorf("tenant %d submit %d: %w", t, submitted, err)
			}
			submitted++
			return nil
		}
		for completed < ops {
			if hot(t) {
				// Greedy: keep the ring at full credit.
				for submitted < ops && tc.Inflight() < qd {
					if err := submit(); err != nil {
						return err
					}
				}
			} else {
				env.Sleep(think(t))
				if err := submit(); err != nil {
					return err
				}
			}
			if err := tc.Flush(env); err != nil {
				return fmt.Errorf("tenant %d flush: %w", t, err)
			}
			cs, err := tc.Ring.Reap(env, 1)
			if err != nil {
				return fmt.Errorf("tenant %d reap: %w", t, err)
			}
			if err := observe(cs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cell := &TenantsCell{
		Tenants: tenants, ServerCores: serverCores, Dist: dist,
		TotalOps: totalOps, Credit: core.TenantCredit, Quantum: core.TenantQuantum,
		HotTenants:   hotTenants,
		wakeCounters: readWake(c.World),
		SpinCycles:   k.SpinCycles,
	}
	for _, fe := range fes {
		cell.Sweeps += fe.FE.Sweeps
		cell.FullSweeps += fe.FE.FullSweeps
		cell.TailPolls += fe.FE.TailPolls
		cell.TenantsVisited += fe.FE.TenantsVisited
		cell.TenantsSkipped += fe.FE.TenantsSkipped
		cell.PollCycles += fe.FE.PollCycles
		cell.ServiceCycles += fe.FE.ServiceCycles
	}
	cell.Makespan, cell.OpsPerMcyc, cell.CyclesPerOp = closedLoop(durations, totalOps)
	cell.Latency = s.latencyOf(c.label)
	if cs := s.latencyOf(coldSite.Label); cs != nil {
		cell.ColdP99 = cs.P99
	}
	if hs := s.latencyOf(hotSite.Label); hs != nil {
		cell.HotP99 = hs.P99
	}
	cell.BreakdownCold = s.breakdownOf(coldSite.Label)
	cell.BreakdownHot = s.breakdownOf(hotSite.Label)

	values := map[string]float64{
		"ops_per_megacycle":  cell.OpsPerMcyc,
		"cycles_per_op":      cell.CyclesPerOp,
		"makespan_cycles":    float64(cell.Makespan),
		"ops_per_sec":        OpsPerSec(totalOps, cell.Makespan),
		"sweeps":             float64(cell.Sweeps),
		"full_sweeps":        float64(cell.FullSweeps),
		"tail_polls":         float64(cell.TailPolls),
		"tenants_visited":    float64(cell.TenantsVisited),
		"tenants_skipped":    float64(cell.TenantsSkipped),
		"poll_cycles":        float64(cell.PollCycles),
		"service_cycles":     float64(cell.ServiceCycles),
		"cold_p99":           float64(cell.ColdP99),
		"hot_p99":            float64(cell.HotP99),
		"hot_tenants":        float64(cell.HotTenants),
		"spin_cycles_parked": float64(cell.SpinCycles),
		"vmfuncs":            float64(k.Mach.Obs.SumSuffix(".vmfuncs")),
		"l1d_misses":         float64(k.Mach.Obs.SumSuffix(".L1D.misses")),
	}
	cell.wakeCounters.addTo(values)
	s.record(Record{
		Experiment: "tenants",
		Config: map[string]string{
			"dist":         dist,
			"tenants":      fmt.Sprintf("%d", tenants),
			"server_cores": fmt.Sprintf("%d", serverCores),
			"ops":          fmt.Sprintf("%d", totalOps),
			"credit":       fmt.Sprintf("%d", core.TenantCredit),
			"quantum":      fmt.Sprintf("%d", core.TenantQuantum),
		},
		CyclesPerOp: cell.CyclesPerOp,
		Values:      values,
		Latency:     cell.Latency,
		Breakdown:   cell.BreakdownCold,
	})
	return cell, nil
}

// cell looks up (dist, tenants, serverCores).
func (r *TenantsResult) cell(dist string, tenants, scores int) *TenantsCell {
	return find(r.Cells, func(c *TenantsCell) bool { return c.Dist == dist && c.Tenants == tenants && c.ServerCores == scores })
}

// Render formats the sweep: aggregate throughput and cold-tenant p99 per
// (dist, tenants) row across server-core counts.
func (r *TenantsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant frontend: per-tenant rings + directory drain (%d ops/tenant uniform share)\n",
		r.OpsPerTenant)
	fmt.Fprintf(&b, "%-8s %7s", "dist", "tenants")
	for _, sc := range r.ServerCores {
		fmt.Fprintf(&b, " %11s %12s", fmt.Sprintf("%dc op/Mc", sc), fmt.Sprintf("%dc coldp99", sc))
	}
	fmt.Fprintln(&b)
	for _, dist := range r.Dists {
		for _, n := range r.TenantCounts {
			fmt.Fprintf(&b, "%-8s %7d", dist, n)
			for _, sc := range r.ServerCores {
				c := r.cell(dist, n, sc)
				if c == nil {
					fmt.Fprintf(&b, " %11s %12s", "-", "-")
					continue
				}
				fmt.Fprintf(&b, " %11.1f %12d", c.OpsPerMcyc, c.ColdP99)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
