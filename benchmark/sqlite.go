package main

import (
	"fmt"
	"os"
	"time"

	"skybridge/internal/blockdev"
	"skybridge/internal/db"
	"skybridge/internal/fs"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// The SQLite workloads: closed-loop YCSB-A clients, one per core, each
// with its own process and database file on one shared FS server that
// calls one block-device server. Every read is checked against a
// host-side shadow of the client's own table.

// sqliteClients is the client count (one per core of the 4-core machine).
const sqliteClients = 4

// loadBatch rows commit per load transaction, so the journal protocol
// does not dominate set-up.
const loadBatch = 64

// sqliteSpec selects one of the two stacks.
type sqliteSpec struct {
	name string
	// skybridge routes client->FS and FS->device calls through SkyBridge
	// under the Rootkernel; otherwise through native seL4 kernel IPC with
	// one server thread per core (the paper's MT-Server).
	skybridge bool
	lock      fs.LockMode
	// batch turns on the FS's batched device IO and the pager's batched
	// commit writeback.
	batch bool
	// records and fieldLen size each client's table.
	records, fieldLen int
}

// sqliteSB is the repository's best SQLite configuration that returns
// correct rows: SkyBridge everywhere with batched IO, over the big-locked
// FS. Over fs.LockFine it returns wrong rows: the FS's one SkyBridge
// binding to the device has one shared buffer, and without the big lock
// several FS threads call through it at once (see README.md).
var sqliteSB = sqliteSpec{name: "sqlite-sb", skybridge: true, lock: fs.LockBig, batch: true, records: 400, fieldLen: 800}

// sqliteKIPC is the paper's Figure 9 MT-Server run: kernel IPC and the
// big-locked xv6fs with synchronous IO.
var sqliteKIPC = sqliteSpec{name: "sqlite-kipc", lock: fs.LockBig, records: 1000, fieldLen: 100}

// fsStack is an assembled FS server and device server.
type fsStack struct {
	fs *fs.FS
	// connect opens a traced connection from a client process to the FS.
	connect func(env *mk.Env, p *mk.Process) (svc.Conn, error)
	// stop shuts down server threads so the engine can drain.
	stop func()
	// check reports a set-up failure inside a server thread (kernel IPC
	// stacks format the file system on one); nil when there is none.
	check func() error
}

// buildFS boots the device and FS servers and formats the file system.
func buildFS(w *world, spec sqliteSpec, tr *tracer) (*fsStack, error) {
	k := w.k
	devProc := k.NewProcess("blockdev")
	fsProc := k.NewProcess("fs")
	dev := blockdev.New(devProc, 32768) // 128 MiB RAM disk
	fcfg := fs.Config{Lock: spec.lock, BatchIO: spec.batch}
	st := &fsStack{stop: func() {}}
	devHandler := tr.handler(layerDev, dev.Handler())

	if spec.skybridge {
		var devID, fsID int
		var err error
		devProc.Spawn("reg", w.core(0), func(env *mk.Env) {
			devID, err = svc.RegisterSkyBridgeServer(w.sb, env, 64, devHandler)
		})
		if rerr := w.run("device register"); rerr != nil {
			return nil, rerr
		}
		if err != nil {
			return nil, fmt.Errorf("device register: %w", err)
		}
		fsProc.Spawn("reg", w.core(0), func(env *mk.Env) {
			var devConn svc.Conn
			if devConn, err = svc.NewSkyBridge(w.sb, env, devID); err != nil {
				return
			}
			st.fs = fs.NewFS(fsProc, tr.conn(layerSBCall, devConn), fcfg)
			if err = st.fs.Mkfs(env, dev.Blocks(), 256); err != nil {
				return
			}
			fsID, err = svc.RegisterSkyBridgeServer(w.sb, env, 64, tr.handler(layerFS, st.fs.Handler()))
		})
		if rerr := w.run("fs register"); rerr != nil {
			return nil, rerr
		}
		if err != nil {
			return nil, fmt.Errorf("fs register: %w", err)
		}
		st.connect = func(env *mk.Env, _ *mk.Process) (svc.Conn, error) {
			c, err := svc.NewSkyBridge(w.sb, env, fsID)
			return tr.conn(layerSBCall, c), err
		}
		return st, nil
	}

	devEP, fsEP := k.NewEndpoint("dev"), k.NewEndpoint("fs")
	st.stop = func() { devEP.Close(); fsEP.Close() }
	st.fs = fs.NewFS(fsProc, tr.conn(layerIPCCall, svc.NewIPC(fsProc, devEP)), fcfg)
	fsHandler := tr.handler(layerFS, st.fs.Handler())
	// Thread 0 formats the file system; the others wait until it mounts.
	var mkfsErr error
	ready := false
	var readyQ sim.WaitQueue
	for c := range k.Mach.Cores {
		first := c == 0
		devProc.Spawn("srv", w.core(c), func(env *mk.Env) { svc.ServeIPC(env, devEP, devHandler) })
		fsProc.Spawn("srv", w.core(c), func(env *mk.Env) {
			if first {
				mkfsErr = st.fs.Mkfs(env, dev.Blocks(), 256)
				ready = true
				for readyQ.Len() > 0 {
					readyQ.WakeOne(w.eng, env.Now(), nil)
				}
			} else if !ready {
				readyQ.Wait(env.T)
			}
			svc.ServeIPC(env, fsEP, fsHandler)
		})
	}
	st.connect = func(env *mk.Env, p *mk.Process) (svc.Conn, error) {
		return tr.conn(layerIPCCall, svc.NewIPC(p, fsEP)), nil
	}
	// Mkfs completes in the first engine run, together with the clients'
	// load phase; a failure surfaces through check.
	st.check = func() error { return mkfsErr }
	return st, nil
}

// sqliteClient is one client's database and the shadow its reads are
// checked against.
type sqliteClient struct {
	db     *db.DB
	tab    *db.Table
	shadow []string // expected field value per row; "" after a failed update
	err    error
}

func runSQLite(cfg runConfig, spec sqliteSpec, ops int) (*result, error) {
	r := newResult()
	setup := time.Now()
	w, err := newWorld(sqliteClients, spec.skybridge)
	if err != nil {
		return nil, err
	}
	st, err := buildFS(w, spec, cfg.tr)
	if err != nil {
		return nil, err
	}
	wl := ycsb.WorkloadA(spec.records)
	wl.FieldLength = spec.fieldLen
	// YCSB-A's exact 50/50 split puts the median on the edge between the
	// read mode (a few thousand cycles) and the commit-bound update mode
	// (hundreds of thousands), so the seed alone would decide which one
	// lat_p50 reports. 40/60 keeps the median inside the update mode.
	wl.ReadProp, wl.UpdateProp = 0.4, 0.6
	perClient := ops / sqliteClients

	clients := make([]*sqliteClient, sqliteClients)
	// FS lock and cache statistics when the window opened.
	var lock0 [4]uint64
	var cache0 [3]uint64
	var barrier sim.WaitQueue
	loaded, finished := 0, 0
	var windowStart uint64
	var ends [sqliteClients]uint64
	var pager0 [sqliteClients][3]uint64

	for ci := range clients {
		c := &sqliteClient{}
		clients[ci] = c
		proc := w.k.NewProcess(fmt.Sprintf("sql%d", ci))
		proc.Spawn("client", w.core(ci), func(env *mk.Env) {
			defer func() {
				if finished++; finished == sqliteClients {
					st.stop()
				}
			}()
			if c.err = c.load(env, proc, st, spec, wl); c.err != nil {
				c.err = fmt.Errorf("client %d load: %w", ci, c.err)
			}
			// Barrier: the last client to finish loading opens the window
			// at the furthest core clock and releases the others there.
			if loaded++; loaded < sqliteClients {
				barrier.Wait(env.T)
				env.Enter()
			} else {
				r.setup = []time.Duration{time.Since(setup)}
				windowStart = w.maxClock()
				if ops > 0 {
					w.openWindow(r, cfg.tr)
					lock0[0], lock0[1], lock0[2], lock0[3] = st.fs.LockStats()
					cache0[0], cache0[1], cache0[2] = st.fs.Cache()
				}
				for barrier.Len() > 0 {
					barrier.WakeOne(w.eng, windowStart, nil)
				}
				if env.Now() < windowStart {
					env.Sleep(windowStart - env.Now())
				}
			}
			if c.err != nil || ops == 0 {
				return
			}
			p := c.db.Pager()
			pager0[ci] = [3]uint64{p.FsReads, p.FsWrites, p.Prefetches}
			gen := ycsb.NewGenerator(wl, clientSeed(cfg.seed, ci))
			for i := 0; i < perClient; i++ {
				c.op(env, r, gen.Next(), cfg.tr)
			}
			ends[ci] = env.Now()
		})
	}
	if err := w.run(spec.name); err != nil {
		return nil, err
	}
	if st.check != nil {
		if err := st.check(); err != nil {
			return nil, fmt.Errorf("mkfs: %w", err)
		}
	}
	for _, c := range clients {
		if c.err != nil {
			return nil, c.err
		}
	}
	if ops == 0 {
		return r, nil
	}
	w.closeWindow(r)
	r.attempted = perClient * sqliteClients
	var end uint64
	for _, e := range ends {
		end = max(end, e)
	}
	r.finish(end - windowStart)

	var reads, writes, prefetches uint64
	for ci, c := range clients {
		p := c.db.Pager()
		reads += p.FsReads - pager0[ci][0]
		writes += p.FsWrites - pager0[ci][1]
		prefetches += p.Prefetches - pager0[ci][2]
	}
	acq, cont, wait, _ := st.fs.LockStats()
	hits, misses, commits := st.fs.Cache()
	ops64 := float64(r.attempted)
	r.layer["db.pager_reads_per_op"] = float64(reads) / ops64
	r.layer["db.pager_writes_per_op"] = float64(writes) / ops64
	r.layer["db.prefetches_per_op"] = float64(prefetches) / ops64
	r.layer["fs.lock_wait_cyc_per_op"] = float64(wait-lock0[2]) / ops64
	r.layer["fs.lock_contended_frac"] = ratio(cont-lock0[1], acq-lock0[0])
	r.layer["fs.bcache_hit_ratio"] = ratio(hits-cache0[0], hits-cache0[0]+misses-cache0[1])
	r.layer["fs.commits_per_op"] = float64(commits-cache0[2]) / ops64
	return r, nil
}

// load opens the client's database and preloads its table, committing
// every loadBatch rows.
func (c *sqliteClient) load(env *mk.Env, proc *mk.Process, st *fsStack, spec sqliteSpec, wl ycsb.Workload) error {
	conn, err := st.connect(env, proc)
	if err != nil {
		return err
	}
	d, err := db.OpenIO(env, proc, &fs.Client{Conn: conn}, "db-"+proc.Name, db.PagerIO{Batch: spec.batch})
	if err != nil {
		return err
	}
	if _, err := d.Exec(env, "CREATE TABLE u (id INTEGER PRIMARY KEY, f TEXT)"); err != nil {
		return err
	}
	tab, _ := d.TableByName("u")
	c.db, c.tab = d, tab
	c.shadow = make([]string, spec.records)
	if err := d.Begin(env); err != nil {
		return err
	}
	for i := range c.shadow {
		c.shadow[i] = ycsb.RecordValue(wl, int64(i))
		if _, err := tab.Insert(env, []db.Value{db.IntValue(int64(i)), db.TextValue(c.shadow[i])}); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if (i+1)%loadBatch == 0 {
			if err := d.Commit(env); err != nil {
				return err
			}
			if err := d.Begin(env); err != nil {
				return err
			}
		}
	}
	return d.Commit(env)
}

// op runs and checks one YCSB operation. A read must return the row the
// shadow holds; an update must find its row. A failed op is counted, its
// transaction rolled back, and the run goes on.
func (c *sqliteClient) op(env *mk.Env, r *result, op ycsb.Op, tr *tracer) {
	t0 := env.Now()
	id := tr.begin(env, layerDB)
	var err error
	kind := kindRead
	switch op.Kind {
	case ycsb.OpRead:
		var vals []db.Value
		var found bool
		vals, found, err = c.tab.Get(env, op.Key)
		if err == nil {
			err = c.check(op.Key, vals, found)
		}
	case ycsb.OpUpdate:
		kind = kindUpdate
		var found bool
		found, err = c.tab.Update(env, op.Key, []db.Value{db.IntValue(op.Key), db.TextValue(op.Value)})
		switch {
		case err != nil:
			c.shadow[op.Key] = ""
		case !found:
			err = fmt.Errorf("row %d missing", op.Key)
		default:
			c.shadow[op.Key] = op.Value
		}
	default:
		err = fmt.Errorf("unexpected op kind %d", op.Kind)
	}
	tr.end(env, id)
	lat := env.Now() - t0
	if err == nil {
		r.observe(kind, lat)
		return
	}
	if r.failed < 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: op on row %d failed: %v\n", env.P.Name, op.Key, err)
	}
	r.fail()
	if c.db.Pager().InTx() {
		_ = c.db.Rollback(env) // best effort: the op already counts as failed
	}
}

// check compares a read row with the shadow. After a failed update the
// row's value is unknown; the first read re-learns it.
func (c *sqliteClient) check(key int64, vals []db.Value, found bool) error {
	if !found {
		return fmt.Errorf("row %d missing", key)
	}
	if len(vals) != 2 || vals[0].Kind != db.KindInt || vals[0].Int != key || vals[1].Kind != db.KindText {
		return fmt.Errorf("row %d: malformed row %v", key, vals)
	}
	want := c.shadow[key]
	if want == "" {
		c.shadow[key] = vals[1].Text
		return nil
	}
	if vals[1].Text != want {
		return fmt.Errorf("row %d: wrong value", key)
	}
	return nil
}
