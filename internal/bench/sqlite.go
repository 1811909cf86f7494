package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"skybridge/internal/blockdev"
	"skybridge/internal/db"
	"skybridge/internal/fs"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// ServerMode is the server threading configuration of §6.5.
type ServerMode int

// Server modes.
const (
	// ModeST: one working thread per server, shared by all clients
	// (cross-core IPC for most of them).
	ModeST ServerMode = iota
	// ModeMT: one server working thread pinned to every core; clients
	// talk to their local thread over the fastpath.
	ModeMT
	// ModeSB: servers are SkyBridge servers; clients make direct calls.
	ModeSB
)

// String implements fmt.Stringer.
func (m ServerMode) String() string {
	switch m {
	case ModeST:
		return "ST-Server"
	case ModeMT:
		return "MT-Server"
	case ModeSB:
		return "SkyBridge"
	default:
		return fmt.Sprintf("ServerMode(%d)", int(m))
	}
}

// DBStack is an assembled three-tier pipeline: client DBs -> FS server ->
// block-device server.
type DBStack struct {
	W         *World
	FS        *fs.FS
	Dev       *blockdev.Device
	fsID      int // SkyBridge server id (ModeSB)
	fsAsyncID int // second FS registration for async rings (0 = none)
	mode      ServerMode
	eps       []*mk.Endpoint
	fsProc    *mk.Process
	devProc   *mk.Process
}

// BuildDBStack boots the servers for the given mode with the
// paper-faithful FS configuration (big lock, synchronous device IO). Must
// be called before clients spawn; it runs the engine to complete
// registration/service startup, leaving server loops parked.
func BuildDBStack(w *World, mode ServerMode) (*DBStack, error) {
	return BuildDBStackCfg(w, mode, fs.Config{}, false)
}

// BuildDBStackCfg is BuildDBStack with an explicit FS lock/IO
// configuration. With asyncFS (ModeSB only) the FS handler registers a
// second SkyBridge server dedicated to async rings: a ring occupies its
// connection's shared buffer, so clients keep a separate sync connection
// for control-path calls (open, fsync, journal writes).
func BuildDBStackCfg(w *World, mode ServerMode, fcfg fs.Config, asyncFS bool) (*DBStack, error) {
	k := w.K
	st := &DBStack{W: w, mode: mode}
	st.devProc = k.NewProcess("blockdev")
	st.fsProc = k.NewProcess("fs")
	st.Dev = blockdev.New(st.devProc, 32768) // 128 MiB RAM disk

	switch mode {
	case ModeST, ModeMT:
		devEP := k.NewEndpoint("dev")
		fsEP := k.NewEndpoint("fs")
		st.eps = []*mk.Endpoint{devEP, fsEP}
		// Device server threads.
		devCores := []int{1 % len(k.Mach.Cores)}
		fsCores := []int{0}
		if mode == ModeMT {
			devCores = devCores[:0]
			fsCores = fsCores[:0]
			for i := range k.Mach.Cores {
				devCores = append(devCores, i)
				fsCores = append(fsCores, i)
			}
		}
		for _, c := range devCores {
			st.devProc.Spawn("srv", k.Mach.Cores[c], func(env *mk.Env) {
				svc.ServeIPC(env, devEP, st.Dev.Handler())
			})
		}
		st.FS = fs.NewFS(st.fsProc, svc.NewIPC(st.fsProc, devEP), fcfg)
		// Thread 0 formats the file system; the other server threads park
		// until it is mounted.
		ready := false
		var readyQ sim.WaitQueue
		for i, c := range fsCores {
			first := i == 0
			st.fsProc.Spawn("srv", k.Mach.Cores[c], func(env *mk.Env) {
				if first {
					if err := st.FS.Mkfs(env, st.Dev.Blocks(), 256); err != nil {
						panic(err)
					}
					ready = true
					for readyQ.Len() > 0 {
						readyQ.WakeOne(w.Eng, env.Now(), nil)
					}
				} else if !ready {
					readyQ.Wait(env.T)
				}
				svc.ServeIPC(env, fsEP, st.FS.Handler())
			})
		}

	case ModeSB:
		sb := w.SB
		var devID int
		st.devProc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
			var err error
			devID, err = svc.RegisterSkyBridgeServer(sb, env, 64, st.Dev.Handler())
			if err != nil {
				panic(err)
			}
		})
		if err := w.Eng.Run(); err != nil {
			return nil, err
		}
		st.fsProc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
			devConn, err := svc.NewSkyBridge(sb, env, devID)
			if err != nil {
				panic(err)
			}
			st.FS = fs.NewFS(st.fsProc, devConn, fcfg)
			if err := st.FS.Mkfs(env, st.Dev.Blocks(), 256); err != nil {
				panic(err)
			}
			st.fsID, err = svc.RegisterSkyBridgeServer(sb, env, 64, st.FS.Handler())
			if err != nil {
				panic(err)
			}
			if asyncFS {
				st.fsAsyncID, err = svc.RegisterSkyBridgeServer(sb, env, 64, st.FS.Handler())
				if err != nil {
					panic(err)
				}
			}
		})
		if err := w.Eng.Run(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Close shuts the stack's IPC servers down so the engine can drain.
func (st *DBStack) Close() {
	for _, ep := range st.eps {
		ep.Close()
	}
}

// dbCell builds a cell over w with the paper-faithful stack in mode; its
// last driver closes the stack's IPC servers.
func dbCell(w *World, mode ServerMode) (*cell, *DBStack, error) {
	c := &cell{World: w}
	st, err := BuildDBStack(w, mode)
	if err != nil {
		return nil, nil, err
	}
	c.closers = append(c.closers, func(*mk.Env) { st.Close() })
	return c, st, nil
}

// FSConn builds a client connection to the FS service for a client process.
func (st *DBStack) FSConn(env *mk.Env, client *mk.Process) (svc.Conn, error) {
	switch st.mode {
	case ModeSB:
		return svc.NewSkyBridge(st.W.SB, env, st.fsID)
	default:
		return svc.NewIPC(client, st.eps[1]), nil
	}
}

// --- The SQLite client of Table 4, Figures 9-11, Table 5 and dbscale ---
//
// Every SQLite experiment drives clients through the same code: loadClient
// binds and preloads one, and run drives its ops. What differs is each
// experiment's measurement protocol, which stays in the experiment: Table 4
// times four op phases, the paper cells meet at an in-run barrier
// (runYCSBCell), and dbscale drains the engine and aligns the clocks
// before one op stream replays on every client (runDBScaleCell).

// dbRingQD is the pager ring queue depth: three page-sized slots are what
// the 4-page ring buffer holds next to the submission/completion queues.
const dbRingQD = 3

// sqlClient is one client's database on a DBStack: its table u, its async
// ring when the stack has an async FS registration, and the value of every
// row it expects to read back (the preload, then its own updates and
// inserts). Every reply is checked against that map on the host, so checks
// charge no simulated cycles.
type sqlClient struct {
	db   *db.DB
	tab  *db.Table
	ring *svc.AsyncConn
	want map[int64]string
	top  int64 // largest key in want
}

// loadClient binds p to st's FS, opens database file name with pager IO
// pio, creates table u and preloads records rows of wl, committing every
// txn rows (txn 1 is one autocommitted insert per row). The async ring
// opens between the bind and the open: that placement is part of every
// async cell's simulated memory layout. The pager moves onto the ring only
// when the caller switches it (Pager.SetIO).
func (st *DBStack) loadClient(env *mk.Env, p *mk.Process, name string, pio db.PagerIO, wl ycsb.Workload, records, txn int) (*sqlClient, error) {
	conn, err := st.FSConn(env, p)
	if err != nil {
		return nil, fmt.Errorf("conn: %w", err)
	}
	c := &sqlClient{want: make(map[int64]string, records)}
	if st.fsAsyncID != 0 {
		if c.ring, err = svc.OpenAsync(st.W.SB, env, st.fsAsyncID, dbRingQD, db.PageSize, mk.WakePolicy{}); err != nil {
			return nil, fmt.Errorf("ring: %w", err)
		}
	}
	if c.db, err = db.OpenIO(env, p, &fs.Client{Conn: conn}, name, pio); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if _, err := c.db.Exec(env, "CREATE TABLE u (id INTEGER PRIMARY KEY, f TEXT)"); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	c.tab, _ = c.db.TableByName("u")
	for i := 0; i < records; i += txn {
		if err := c.db.Begin(env); err != nil {
			return nil, err
		}
		for k := i; k < min(i+txn, records); k++ {
			if err := c.insert(env, int64(k), ycsb.RecordValue(wl, int64(k))); err != nil {
				return nil, fmt.Errorf("load row %d: %w", k, err)
			}
		}
		if err := c.db.Commit(env); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// run drives ops operations drawn from g, observing each one's latency into
// h when h is non-nil.
func (c *sqlClient) run(env *mk.Env, g *ycsb.Generator, ops int, h *obs.Histogram) error {
	for i := 0; i < ops; i++ {
		op := g.Next()
		t := env.Now()
		var err error
		switch op.Kind {
		case ycsb.OpRead:
			err = c.get(env, op.Key)
		case ycsb.OpUpdate:
			err = c.update(env, op.Key, op.Value)
		case ycsb.OpInsert:
			err = c.insert(env, op.Key, op.Value)
		case ycsb.OpScan:
			err = c.scan(env, op.Key, op.ScanLen)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		h.Observe(env.Now() - t)
	}
	return nil
}

// get reads row key and checks the reply.
func (c *sqlClient) get(env *mk.Env, key int64) error {
	vals, found, err := c.tab.Get(env, key)
	if err != nil {
		return err
	}
	return c.check(key, vals, found)
}

// update overwrites row key with v.
func (c *sqlClient) update(env *mk.Env, key int64, v string) error {
	found, err := c.tab.Update(env, key, []db.Value{db.IntValue(key), db.TextValue(v)})
	if err != nil {
		return err
	}
	if _, ok := c.want[key]; found != ok {
		return fmt.Errorf("update of row %d: found %v, want %v", key, found, ok)
	}
	if found {
		c.want[key] = v
	}
	return nil
}

// insert adds row key with value v.
func (c *sqlClient) insert(env *mk.Env, key int64, v string) error {
	if _, err := c.tab.Insert(env, []db.Value{db.IntValue(key), db.TextValue(v)}); err != nil {
		return err
	}
	c.want[key] = v
	c.top = max(c.top, key)
	return nil
}

// scan reads up to n rows from the first key at or after start and checks
// that they come back in ascending key order with their expected values,
// and that no expected row in the scanned range was skipped.
func (c *sqlClient) scan(env *mk.Env, start int64, n int) error {
	next, got := start, 0 // every expected row below next has been returned
	var bad error
	err := c.tab.ScanFrom(env, start, func(key int64, vals []db.Value) bool {
		if key < next {
			bad = fmt.Errorf("scan from %d: row %d out of order", start, key)
		} else if bad = c.skipped(next, key); bad == nil {
			bad = c.check(key, vals, true)
		}
		next, got = key+1, got+1
		return bad == nil && got < n
	})
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case got < n: // the scan ran off the end of the table
		return c.skipped(next, c.top+1)
	}
	return nil
}

// skipped reports an expected row in [from, to) that a scan did not return.
func (c *sqlClient) skipped(from, to int64) error {
	for key := from; key < to; key++ {
		if _, ok := c.want[key]; ok {
			return fmt.Errorf("row %d skipped by a scan", key)
		}
	}
	return nil
}

// check compares one row read back (found: the table has it) with the
// client's expectation.
func (c *sqlClient) check(key int64, vals []db.Value, found bool) error {
	want, ok := c.want[key]
	if found != ok {
		return fmt.Errorf("row %d: found %v, want %v", key, found, ok)
	}
	if found && (len(vals) != 2 || vals[0].Int != key || vals[1].Text != want) {
		return fmt.Errorf("row %d: wrong value read back", key)
	}
	return nil
}

// --- Table 4: SQLite3 basic operations ---

// Table4Config sizes the experiment.
type Table4Config struct {
	Flavor mk.Flavor
	// Clients, OpsPerKind and Preload must each be at least 1.
	Clients int
	// OpsPerKind is the measured operations per op kind per client.
	OpsPerKind int
	// Preload rows per client before measuring.
	Preload int
}

// Table4Row is one (mode, op) measurement.
type Table4Row struct {
	Mode ServerMode
	// OpsPerSec for insert, update, query, delete.
	Insert, Update, Query, Delete float64
}

// Table4Result holds one kernel flavor's block of Table 4.
type Table4Result struct {
	Flavor mk.Flavor
	Rows   []Table4Row
}

// table4Paper reproduces the paper's Table 4 for rendering reference.
var table4Paper = map[string]map[string][4]float64{
	"seL4": {
		"ST-Server": {4839.08, 3943.71, 13245.92, 4326.92},
		"MT-Server": {6001.82, 4714.52, 14025.37, 5314.04},
		"SkyBridge": {11251.08, 7335.57, 18610.60, 7339.31},
	},
	"Fiasco.OC": {
		"ST-Server": {1296.83, 1222.83, 8108.11, 1255.23},
		"MT-Server": {1685.39, 1557.09, 8256.88, 1607.14},
		"SkyBridge": {5000.00, 4545.45, 15789.47, 4568.53},
	},
	"Zircon": {
		"ST-Server": {1408.42, 1376.77, 9432.34, 1389.64},
		"MT-Server": {2467.90, 2360.00, 9535.56, 1389.64},
		"SkyBridge": {7710.63, 6643.24, 17843.54, 7027.30},
	},
}

// Table4 measures insert/update/query/delete throughput for one kernel
// flavor in the three server configurations, recording each mode's
// throughputs.
func (s *Session) Table4(cfg Table4Config) (*Table4Result, error) {
	if cfg.Clients < 1 || cfg.OpsPerKind < 1 || cfg.Preload < 1 {
		return nil, fmt.Errorf("table4: %d clients, %d ops per kind and %d preloaded rows: each must be at least 1",
			cfg.Clients, cfg.OpsPerKind, cfg.Preload)
	}
	res := &Table4Result{Flavor: cfg.Flavor}
	for _, mode := range []ServerMode{ModeST, ModeMT, ModeSB} {
		row, err := s.runTable4Mode(cfg, mode)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
		s.record(Record{
			Experiment: "table4",
			Config:     map[string]string{"flavor": cfg.Flavor.String(), "mode": mode.String()},
			Values: map[string]float64{
				"insert_ops_per_sec": row.Insert,
				"update_ops_per_sec": row.Update,
				"query_ops_per_sec":  row.Query,
				"delete_ops_per_sec": row.Delete,
			},
		})
	}
	return res, nil
}

// runTable4Mode runs one mode's four phases on a world the session
// observes under the label "table4/<flavor>/<mode>".
func (s *Session) runTable4Mode(cfg Table4Config, mode ServerMode) (*Table4Row, error) {
	label := fmt.Sprintf("table4/%s/%s", cfg.Flavor, mode)
	c, st, err := dbCell(s.world(label, WorldConfig{Flavor: cfg.Flavor, Cores: 4, SkyBridge: mode == ModeSB}), mode)
	if err != nil {
		return nil, err
	}
	wl := ycsb.WorkloadA(cfg.Preload)
	val := strings.Repeat("x", wl.FieldLength)

	// times[ci][phase] is client ci's insert, update, query and delete time.
	times := make([][4]uint64, cfg.Clients)
	procs := make([]*mk.Process, cfg.Clients)
	for ci := range procs {
		procs[ci] = c.K.NewProcess(fmt.Sprintf("client%d", ci))
	}
	_, err = c.drive(procs, c.K.Placement().Core, nil, func(ci int, env *mk.Env) error {
		cl, err := st.loadClient(env, procs[ci], fmt.Sprintf("db%d", ci), db.PagerIO{}, wl, cfg.Preload, 1)
		if err != nil {
			return fmt.Errorf("client %d: %w", ci, err)
		}
		// Scatter measured keys across the whole preloaded keyspace so
		// each phase exercises the pager realistically (sequential keys
		// would all land in one or two cached B+tree leaves), with a
		// different stride per phase so the query phase does not simply
		// re-touch the pages the update phase just cached.
		key := func(i int, stride uint64) int64 {
			return int64((uint64(i)*stride + uint64(ci)) % uint64(cfg.Preload))
		}
		phases := [4]func(i int) error{
			func(i int) error { return cl.insert(env, int64(cfg.Preload+i), val) },
			func(i int) error { return cl.update(env, key(i, 2654435761), val) },
			func(i int) error { return cl.get(env, key(i, 1779033703)) },
			func(i int) error { _, err := cl.tab.Delete(env, int64(i)); return err },
		}
		for ph, op := range phases {
			start := env.Now()
			for i := 0; i < cfg.OpsPerKind; i++ {
				if err := op(i); err != nil {
					return fmt.Errorf("client %d: %w", ci, err)
				}
			}
			times[ci][ph] = env.Now() - start
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tput [4]float64
	for _, t := range times {
		for ph := range tput {
			tput[ph] += OpsPerSec(cfg.OpsPerKind, t[ph])
		}
	}
	return &Table4Row{Mode: mode, Insert: tput[0], Update: tput[1], Query: tput[2], Delete: tput[3]}, nil
}

// Render formats the flavor's Table 4 block.
func (r *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 (%s): SQLite3 basic operations (ops/s); paper values in parentheses\n", r.Flavor)
	fmt.Fprintf(&b, "%-11s %19s %19s %19s %19s\n", "", "Insert", "Update", "Query", "Delete")
	paper := table4Paper[r.Flavor.String()]
	for _, row := range r.Rows {
		p := paper[row.Mode.String()]
		fmt.Fprintf(&b, "%-11s %9.0f (%7.0f) %9.0f (%7.0f) %9.0f (%7.0f) %9.0f (%7.0f)\n",
			row.Mode, row.Insert, p[0], row.Update, p[1], row.Query, p[2], row.Delete, p[3])
	}
	return b.String()
}

// --- Figures 9-11 and Table 5: YCSB-A on the paper's stack ---

// ycsbCell is one paper cell: YCSB-A over the paper-faithful stack (big
// FS lock, synchronous IO), one client thread and database per thread. It
// names every input of the cell, so it is also the cell's memo key.
type ycsbCell struct {
	Flavor      mk.Flavor
	Mode        ServerMode
	Threads     int
	Records     int
	Ops         int  // per thread
	Virtualized bool // under the Rootkernel
}

// ycsbRun is a paper cell's outcome: throughput over the measured window
// and the VM exits taken in it.
type ycsbRun struct {
	Tput  float64
	Exits uint64
}

// cellMemo holds the paper cells one session tree (a session and every
// sub-session newSub derives from it) has simulated, so a cell that two
// experiments print runs once per tree: Table 5's native column is Figure
// 9's MT-Server cells. Paper cells run on unobserved worlds and leave
// nothing in their session but the returned result, which is what makes
// reusing one safe.
type cellMemo struct {
	mu    sync.Mutex
	cells map[ycsbCell]*memoCell
}

type memoCell struct {
	once sync.Once
	run  ycsbRun
	err  error
}

// paperCell returns the cell's result, simulating it on the first request
// in the session tree; concurrent requests for one cell wait for it.
func (s *Session) paperCell(c ycsbCell) (ycsbRun, error) {
	m := s.memo
	m.mu.Lock()
	e := m.cells[c]
	if e == nil {
		e = &memoCell{}
		m.cells[c] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.run, e.err = runYCSBCell(c) })
	return e.run, e.err
}

// runYCSBCell simulates one paper cell. Each client loads its own
// database, the clients meet at a barrier, and the measured window runs
// from the first client's start to the last client's end; client i draws
// its ops from seed 1000+i.
func runYCSBCell(pc ycsbCell) (ycsbRun, error) {
	c, st, err := dbCell(MustWorld(WorldConfig{
		Flavor: pc.Flavor, Cores: min(max(pc.Threads, 2), 8),
		SkyBridge: pc.Mode == ModeSB, Virtualized: pc.Virtualized,
	}), pc.Mode)
	if err != nil {
		return ycsbRun{}, err
	}
	k := c.K
	wl := ycsb.WorkloadA(pc.Records)
	starts := make([]uint64, pc.Threads)
	ends := make([]uint64, pc.Threads)
	loaded := 0
	var barrier sim.WaitQueue
	procs := make([]*mk.Process, pc.Threads)
	for i := range procs {
		procs[i] = k.NewProcess(fmt.Sprintf("sql%d", i))
	}
	_, err = c.drive(procs, k.Placement().Core, nil, func(i int, env *mk.Env) error {
		cl, err := st.loadClient(env, procs[i], fmt.Sprintf("d%d", i), db.PagerIO{}, wl, pc.Records, 1)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		// Barrier between the load phase and the measured phase, so the
		// measurement window covers only steady-state operations.
		env.T.Checkpoint()
		if loaded++; loaded < pc.Threads {
			barrier.Wait(env.T)
			env.Enter()
		} else {
			k.Mach.ResetVMExitCounts()
			for barrier.Len() > 0 {
				barrier.WakeOne(c.Eng, env.Now(), nil)
			}
		}
		starts[i] = env.Now()
		if err := cl.run(env, ycsb.NewGenerator(wl, int64(1000+i)), pc.Ops, nil); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		ends[i] = env.Now()
		return nil
	})
	if err != nil {
		return ycsbRun{}, err
	}
	window := slices.Max(ends) - slices.Min(starts)
	return ycsbRun{Tput: OpsPerSec(pc.Ops*pc.Threads, window), Exits: k.Mach.TotalVMExits()}, nil
}

// YCSBConfig sizes the experiment. Threads defaults to 1, 2, 4 and 8;
// Records and Ops must be at least 1.
type YCSBConfig struct {
	Flavor  mk.Flavor
	Threads []int
	Records int
	Ops     int // per thread
}

// YCSBResult holds throughput series per server mode.
type YCSBResult struct {
	Flavor  mk.Flavor
	Threads []int
	// Tput[mode][i] is ops/s with Threads[i] client threads.
	Tput map[ServerMode][]float64
}

// Figure9to11 regenerates the YCSB-A scalability figure for one flavor
// (Figure 9 = seL4, 10 = Fiasco.OC, 11 = Zircon): its cells run on sweep,
// and each cell is recorded.
func (s *Session) Figure9to11(cfg YCSBConfig) (*YCSBResult, error) {
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 2, 4, 8}
	}
	if cfg.Records < 1 || cfg.Ops < 1 {
		return nil, fmt.Errorf("ycsb: %d records and %d ops per thread: both must be at least 1", cfg.Records, cfg.Ops)
	}
	var cells []ycsbCell
	for _, mode := range []ServerMode{ModeST, ModeMT, ModeSB} {
		for _, th := range cfg.Threads {
			cells = append(cells, ycsbCell{Flavor: cfg.Flavor, Mode: mode, Threads: th, Records: cfg.Records, Ops: cfg.Ops})
		}
	}
	runs, err := sweep(s, cells, (*Session).paperCell)
	if err != nil {
		return nil, err
	}
	res := &YCSBResult{Flavor: cfg.Flavor, Threads: cfg.Threads, Tput: make(map[ServerMode][]float64)}
	for i, c := range cells {
		res.Tput[c.Mode] = append(res.Tput[c.Mode], runs[i].Tput)
		s.record(Record{
			Experiment: "ycsb",
			Config: map[string]string{
				"flavor": c.Flavor.String(), "mode": c.Mode.String(),
				"threads": fmt.Sprintf("%d", c.Threads),
			},
			Values: map[string]float64{
				"ops_per_sec": runs[i].Tput,
				"vm_exits":    float64(runs[i].Exits),
			},
		})
	}
	return res, nil
}

// Render formats the figure.
func (r *YCSBResult) Render() string {
	var b strings.Builder
	fig := map[mk.Flavor]string{mk.SeL4: "Figure 9", mk.Fiasco: "Figure 10", mk.Zircon: "Figure 11"}[r.Flavor]
	fmt.Fprintf(&b, "%s: YCSB-A throughput on %s (ops/s)\n", fig, r.Flavor)
	fmt.Fprintf(&b, "%-11s", "mode")
	for _, th := range r.Threads {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d-thread", th))
	}
	fmt.Fprintln(&b)
	for _, mode := range []ServerMode{ModeST, ModeMT, ModeSB} {
		fmt.Fprintf(&b, "%-11s", mode)
		for _, v := range r.Tput[mode] {
			fmt.Fprintf(&b, " %10.0f", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table5Row is one configuration's throughput.
type Table5Row struct {
	Threads    int
	Native     float64
	Rootkernel float64
	VMExits    uint64
}

// Table5Result reproduces Table 5.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 runs YCSB-A on seL4 (MT servers, no SkyBridge) natively and under
// the Rootkernel and reports throughput plus VM-exit counts: its cells run
// on sweep, the native ones shared with Figure 9 through the session
// tree's memo, and each row is recorded.
func (s *Session) Table5(records, ops int) (*Table5Result, error) {
	if records < 1 || ops < 1 {
		return nil, fmt.Errorf("table5: %d records and %d ops per thread: both must be at least 1", records, ops)
	}
	var cells []ycsbCell
	for _, th := range []int{1, 8} {
		for _, virt := range []bool{false, true} {
			cells = append(cells, ycsbCell{Flavor: mk.SeL4, Mode: ModeMT, Threads: th, Records: records, Ops: ops, Virtualized: virt})
		}
	}
	runs, err := sweep(s, cells, (*Session).paperCell)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for i := 0; i < len(cells); i += 2 {
		native, virt := runs[i], runs[i+1]
		row := Table5Row{Threads: cells[i].Threads, Native: native.Tput, Rootkernel: virt.Tput, VMExits: virt.Exits}
		res.Rows = append(res.Rows, row)
		s.record(Record{
			Experiment: "table5",
			Config:     map[string]string{"threads": fmt.Sprintf("%d", row.Threads)},
			Values: map[string]float64{
				"native_ops_per_sec":     row.Native,
				"rootkernel_ops_per_sec": row.Rootkernel,
				"vm_exits":               float64(row.VMExits),
			},
		})
	}
	return res, nil
}

// Render formats the table.
func (r *Table5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: YCSB-A throughput, native vs Rootkernel (no SkyBridge), and VM exits\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %10s\n", "", "Native", "Rootkernel", "#VM exits")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "YCSB-A %d thread%s      %12.2f %12.2f %10d\n",
			row.Threads, map[bool]string{true: "s", false: " "}[row.Threads > 1], row.Native, row.Rootkernel, row.VMExits)
	}
	return b.String()
}
