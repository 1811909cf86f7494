package bench

import (
	"fmt"
	"strings"

	"skybridge/internal/core"
	"skybridge/internal/db"
	"skybridge/internal/fs"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/ycsb"
)

// Database scaling: the full SQLite→xv6fs→blockdev pipeline swept across
// core counts, FS locking disciplines, and IPC fast paths. Each client
// core runs one SQLite instance against its own database file on a shared
// FS server; the sweep crosses {biglock, finelock} — the paper's
// big-locked xv6fs port against per-inode stripes with a sharded buffer
// cache and group-commit log — with {sync, batched, async} IO routing:
// one DirectCall per block/page, commit protocols folded into
// DirectCallBatch crossings, or the pager's writeback and scan prefetch
// streamed through submission/completion rings. The biglock+sync column
// reproduces Figures 9-11's flat-to-negative scaling; finelock+batched
// turns it positive on the read-heavy mix.

// DBScaleConfig parameterizes the sweep (seL4 flavor).
type DBScaleConfig struct {
	// CoreCounts are the machine widths swept (default 1, 2, 4); each
	// core runs one closed-loop SQLite client.
	CoreCounts []int
	// Workloads are the YCSB mixes driven (default A, B, E).
	Workloads []ycsb.Workload
	// Records is the per-client preloaded row count (at least 1).
	Records int
	// OpsPerClient is the measured operation count per client, at least 1
	// (scan-heavy workloads run a quarter of it; one scan touches many
	// rows).
	OpsPerClient int
}

// DBScaleCell is one measured (workload, cores, lock, io) configuration.
type DBScaleCell struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Lock     string `json:"lock"` // biglock | finelock
	IO       string `json:"io"`   // sync | batched | async

	OpsPerMcyc  float64 `json:"ops_per_mcyc"`
	CyclesPerOp float64 `json:"cycles_per_op"`
	Makespan    uint64  `json:"makespan_cycles"`
	TotalOps    int     `json:"total_ops"`

	ClientCycles []uint64 `json:"client_cycles"`

	// Transport accounting over the measurement window.
	DirectCalls uint64 `json:"direct_calls"`
	BatchCalls  uint64 `json:"batch_calls"`
	RingOps     uint64 `json:"ring_ops"`
	Doorbells   uint64 `json:"doorbells"`

	// FS lock accounting (big lock, or stripes+alloc+log in fine mode).
	LockAcq        uint64 `json:"lock_acq"`
	LockContended  uint64 `json:"lock_contended"`
	LockWaitCycles uint64 `json:"lock_wait_cycles"`
	LockWakeIPIs   uint64 `json:"lock_wake_ipis"`

	// FS buffer cache and log over the measurement window.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Commits     uint64 `json:"commits"`

	// Pager-side FS traffic, summed over the clients.
	PagerReads      uint64 `json:"pager_reads"`
	PagerWrites     uint64 `json:"pager_writes"`
	PagerPrefetches uint64 `json:"pager_prefetches"`

	// Breakdown is the per-call phase attribution of the window.
	Breakdown *obs.BreakdownSummary `json:"breakdown,omitempty"`
}

// DBScaleResult holds the sweep.
type DBScaleResult struct {
	Records      int            `json:"records"`
	OpsPerClient int            `json:"ops_per_client"`
	CoreCounts   []int          `json:"core_counts"`
	Workloads    []string       `json:"workloads"`
	Cells        []*DBScaleCell `json:"cells"`
}

// DBScale runs the sweep: each cell feeds a per-op latency histogram
// "dbscale/<workload>/<cores>c/<lock>+<io>" and emits one Record.
func (s *Session) DBScale(cfg DBScaleConfig) (*DBScaleResult, error) {
	if len(cfg.CoreCounts) == 0 {
		cfg.CoreCounts = []int{1, 2, 4}
	}
	if cfg.Records < 1 || cfg.OpsPerClient < 1 {
		return nil, fmt.Errorf("dbscale: %d records and %d ops per client: both must be at least 1", cfg.Records, cfg.OpsPerClient)
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []ycsb.Workload{
			dbWorkload(ycsb.WorkloadA(cfg.Records)),
			dbWorkload(ycsb.WorkloadB(cfg.Records)),
			dbScanWorkload(cfg.Records),
		}
	}
	res := &DBScaleResult{
		Records: cfg.Records, OpsPerClient: cfg.OpsPerClient,
		CoreCounts: cfg.CoreCounts,
	}
	type cellSpec struct {
		w     ycsb.Workload
		cores int
		lock  string
		io    string
	}
	var specs []cellSpec
	for _, w := range cfg.Workloads {
		res.Workloads = append(res.Workloads, w.Name)
		for _, cores := range cfg.CoreCounts {
			for _, lock := range []string{"biglock", "finelock"} {
				for _, io := range []string{"sync", "batched", "async"} {
					specs = append(specs, cellSpec{w, cores, lock, io})
				}
			}
		}
	}
	cells, err := sweep(s, specs, func(sub *Session, sp cellSpec) (*DBScaleCell, error) {
		return sub.runDBScaleCell(cfg, sp.w, sp.cores, sp.lock, sp.io)
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// dbScanWorkload is YCSB-E trimmed for the simulated pipeline: scans are
// bounded at 25 rows so a scan-heavy cell costs the same order as the
// point workloads.
func dbScanWorkload(records int) ycsb.Workload {
	w := dbWorkload(ycsb.WorkloadE(records))
	w.MaxScanLen = 25
	return w
}

// dbWorkload widens YCSB rows to ~800 bytes so a client's btree overflows
// the 64-page pager cache: the zipfian tail then misses in SQLite's page
// cache and reads reach the filesystem, which is what the lock-mode and
// IO-mode axes are meant to stress. With the stock 100-byte fields the
// whole table caches client-side and the cells measure only commit
// traffic.
func dbWorkload(w ycsb.Workload) ycsb.Workload {
	w.FieldLength = 800
	return w
}

// dbOps is the per-client measured op count for a workload: scan-heavy
// mixes run a quarter (each scan reads up to MaxScanLen rows).
func dbOps(cfg DBScaleConfig, w ycsb.Workload) int {
	ops := cfg.OpsPerClient
	if w.ScanProp > 0 {
		ops /= 4
		if ops == 0 {
			ops = 1
		}
	}
	return ops
}

// runDBScaleCell measures one (workload, cores, lock, io) configuration.
func (s *Session) runDBScaleCell(cfg DBScaleConfig, w ycsb.Workload, cores int, lock, ioMode string) (*DBScaleCell, error) {
	c := s.newCell(fmt.Sprintf("dbscale/%s/%dc/%s+%s", w.Name, cores, lock, ioMode), WorldConfig{Flavor: mk.SeL4, Cores: cores, SkyBridge: true})
	pl := c.K.Placement()

	fcfg := fs.Config{BatchIO: ioMode != "sync"}
	if lock == "finelock" {
		fcfg.Lock = fs.LockFine
	}
	async := ioMode == "async"
	st, err := BuildDBStackCfg(c.World, ModeSB, fcfg, async)
	if err != nil {
		return nil, err
	}
	var ringSrv *core.RingServer
	if async {
		ringSrv, err = c.SB.NewRingServer(st.fsAsyncID, mk.WakePolicy{})
		if err != nil {
			return nil, err
		}
	}

	// Bind+load phase: one client per core, each with its own database
	// file on the shared FS. Loading commits in batches of 64 rows so the
	// journal protocol does not dominate setup. Async rings are opened
	// here but stay idle until the pagers switch onto them below.
	clients := make([]*sqlClient, cores)
	procs := make([]*mk.Process, cores)
	for ci := range procs {
		procs[ci] = c.K.NewProcess(fmt.Sprintf("sql%d", ci))
	}
	if err := c.phase(procs, "load", pl.Core, func(ci int, env *mk.Env) error {
		var err error
		if clients[ci], err = st.loadClient(env, procs[ci], fmt.Sprintf("d%d", ci), db.PagerIO{Batch: ioMode != "sync"}, w, cfg.Records, 64); err != nil {
			return fmt.Errorf("client %d: %w", ci, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Async cells route commit writeback (and scan prefetch) through the
	// rings from here on; the poll thread spawns inside the measurement
	// window so its cycles are part of the cost being measured.
	if async {
		for _, cl := range clients {
			cl.db.Pager().SetIO(db.PagerIO{Batch: true, Async: cl.ring})
		}
	}

	c.open(true, c.label)
	acq0, cont0, wait0, ipi0 := st.FS.LockStats()
	hits0, miss0, commits0 := st.FS.Cache()
	var reads0, writes0 uint64
	for _, cl := range clients {
		reads0 += cl.db.Pager().FsReads
		writes0 += cl.db.Pager().FsWrites
	}

	if async {
		c.serve(st.FS.Proc, "poll", pl.Core(cores-1), ringSrv)
	}
	ops := dbOps(cfg, w)
	// Every client drives the identical op sequence against its own
	// database: per-client work is then constant across core counts, so
	// the cell ratios measure contention and IPC-path cost, not seed luck
	// in the read/write draw.
	durations, err := c.drive(procs, pl.Core, nil, func(ci int, env *mk.Env) error {
		if err := clients[ci].run(env, ycsb.NewGenerator(w, 1000), ops, c.h); err != nil {
			return fmt.Errorf("client %d: %w", ci, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	acq1, cont1, wait1, ipi1 := st.FS.LockStats()
	hits1, miss1, commits1 := st.FS.Cache()
	cell := &DBScaleCell{
		Workload: w.Name, Cores: cores, Lock: lock, IO: ioMode,
		TotalOps:       ops * cores,
		ClientCycles:   durations,
		DirectCalls:    c.SB.DirectCalls,
		BatchCalls:     c.SB.BatchCalls,
		RingOps:        c.SB.RingOps,
		Doorbells:      c.SB.RingDoorbells,
		LockAcq:        acq1 - acq0,
		LockContended:  cont1 - cont0,
		LockWaitCycles: wait1 - wait0,
		LockWakeIPIs:   ipi1 - ipi0,
		CacheHits:      hits1 - hits0,
		CacheMisses:    miss1 - miss0,
		Commits:        commits1 - commits0,
	}
	for _, cl := range clients {
		cell.PagerReads += cl.db.Pager().FsReads
		cell.PagerWrites += cl.db.Pager().FsWrites
		cell.PagerPrefetches += cl.db.Pager().Prefetches
	}
	cell.PagerReads -= reads0
	cell.PagerWrites -= writes0
	cell.Makespan, cell.OpsPerMcyc, cell.CyclesPerOp = closedLoop(durations, cell.TotalOps)
	cell.Breakdown = s.breakdownOf(c.label)

	s.record(Record{
		Experiment: "dbscale",
		Config: map[string]string{
			"workload": w.Name,
			"cores":    fmt.Sprintf("%d", cores),
			"lock":     lock,
			"io":       ioMode,
			"records":  fmt.Sprintf("%d", cfg.Records),
			"ops":      fmt.Sprintf("%d", cell.TotalOps),
		},
		CyclesPerOp: cell.CyclesPerOp,
		Values: map[string]float64{
			"ops_per_megacycle": cell.OpsPerMcyc,
			"cycles_per_op":     cell.CyclesPerOp,
			"makespan_cycles":   float64(cell.Makespan),
			"ops_per_sec":       OpsPerSec(cell.TotalOps, cell.Makespan),
			"direct_calls":      float64(cell.DirectCalls),
			"batch_calls":       float64(cell.BatchCalls),
			"ring_ops":          float64(cell.RingOps),
			"doorbells":         float64(cell.Doorbells),
			"lock_acq":          float64(cell.LockAcq),
			"lock_contended":    float64(cell.LockContended),
			"lock_wait_cycles":  float64(cell.LockWaitCycles),
			"lock_wake_ipis":    float64(cell.LockWakeIPIs),
			"cache_hits":        float64(cell.CacheHits),
			"cache_misses":      float64(cell.CacheMisses),
			"fs_commits":        float64(cell.Commits),
			"pager_reads":       float64(cell.PagerReads),
			"pager_writes":      float64(cell.PagerWrites),
			"pager_prefetches":  float64(cell.PagerPrefetches),
		},
		Latency:   s.latencyOf(c.label),
		Breakdown: cell.Breakdown,
	})
	return cell, nil
}

// cell looks up (workload, cores, lock, io).
func (r *DBScaleResult) cell(workload string, cores int, lock, io string) *DBScaleCell {
	return find(r.Cells, func(c *DBScaleCell) bool {
		return c.Workload == workload && c.Cores == cores && c.Lock == lock && c.IO == io
	})
}

// Render formats the sweep: one row per (workload, lock, io) with
// aggregate throughput per core count and the widest/narrowest ratio.
func (r *DBScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Database scaling: SQLite -> xv6fs -> blockdev, per-client ops fixed (%d records, %d ops/client)\n",
		r.Records, r.OpsPerClient)
	fmt.Fprintf(&b, "%-10s %-9s %-8s", "workload", "lock", "io")
	for _, c := range r.CoreCounts {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%dc op/Mc", c))
	}
	last := r.CoreCounts[len(r.CoreCounts)-1]
	first := r.CoreCounts[0]
	fmt.Fprintf(&b, " %8s\n", fmt.Sprintf("%dc/%dc", last, first))
	for _, w := range r.Workloads {
		for _, lock := range []string{"biglock", "finelock"} {
			for _, io := range []string{"sync", "batched", "async"} {
				var firstT, lastT float64
				printed := false
				for _, cores := range r.CoreCounts {
					c := r.cell(w, cores, lock, io)
					if c == nil {
						continue
					}
					if !printed {
						fmt.Fprintf(&b, "%-10s %-9s %-8s", w, lock, io)
						printed = true
					}
					fmt.Fprintf(&b, " %10.2f", c.OpsPerMcyc)
					if cores == first {
						firstT = c.OpsPerMcyc
					}
					if cores == last {
						lastT = c.OpsPerMcyc
					}
				}
				if printed {
					if firstT > 0 {
						fmt.Fprintf(&b, " %7.2fx", lastT/firstT)
					}
					fmt.Fprintln(&b)
				}
			}
		}
	}
	return b.String()
}
