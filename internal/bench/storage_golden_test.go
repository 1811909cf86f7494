package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"skybridge/internal/blockdev"
	"skybridge/internal/db"
	"skybridge/internal/fs"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// goldenStorage is the SHA-256 of TestStorageGolden's per-world records.
const goldenStorage = "99bd9b9caaa5be0745f1887f5af91804ea96ee78f69f742ca0839f3fcc1399a0"

// TestStorageGolden pins the simulated cost of the SQLite→xv6fs→blockdev
// paths that no BENCH file or skybench unit reaches: SQL SELECT, UPDATE
// and DELETE with a WHERE on a non-key column, inserts into a table
// without an integer primary key (rowid = max + 1), Delete and ScanFrom
// on a three-level B+tree, Rollback, a hot-journal rollback when the
// database reopens, and fs log recovery when a crashed file system is
// mounted again. Every case runs with batched and with single IO, over
// SkyBridge connections (which batch) and over kernel IPC ones, on a
// big-lock and on a fine-lock file system. Each
// world records every step's rows, clock, pager, FS and device counters,
// then every core's clock, counters, D-TLB, L1D and L2 stats and the L3
// stats; the records hash to one constant.
func TestStorageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight storage worlds")
	}
	var rec bytes.Buffer
	for _, viaSB := range []bool{true, false} {
		for _, batch := range []bool{false, true} {
			for _, lock := range []fs.LockMode{fs.LockBig, fs.LockFine} {
				storageWorld(t, &rec, viaSB, fs.Config{Lock: lock, BatchIO: batch})
			}
		}
	}
	sum := sha256.Sum256(rec.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenStorage {
		t.Errorf("storage charges moved: sha256 %s, want %s\nrecords:\n%s", got, goldenStorage, rec.String())
	}
}

// crashConn models power loss behind a connection. Once armed it passes
// requests through until the after'th request with opcode op has gone
// through; from then on every request is acknowledged with StatusOK and
// dropped, as if the machine died there. Disarming it models the reboot.
// It keeps the inner connection's batching.
type crashConn struct {
	inner svc.Conn
	armed bool
	op    uint64
	after int
	seen  int
}

func (c *crashConn) drop(req svc.Req) bool {
	if !c.armed {
		return false
	}
	if c.seen >= c.after {
		return true
	}
	if req.Op == c.op {
		c.seen++
	}
	return false
}

func (c *crashConn) Invoke(env *mk.Env, req svc.Req) (svc.Resp, error) {
	if c.drop(req) {
		return svc.Resp{}, nil
	}
	return c.inner.Invoke(env, req)
}

func (c *crashConn) InvokeBatch(env *mk.Env, reqs []svc.Req) ([]svc.Resp, error) {
	n := 0
	for n < len(reqs) && !c.drop(reqs[n]) {
		n++
	}
	resps, err := svc.InvokeBatch(env, c.inner, reqs[:n])
	if err != nil {
		return nil, err
	}
	return append(resps, make([]svc.Resp, len(reqs)-n)...), nil
}

func (c *crashConn) arm(op uint64, after int) { c.armed, c.op, c.after, c.seen = true, op, after, 0 }

// storageWorld builds one client → FS → device stack over SkyBridge or
// kernel IPC, with the FS configured by cfg and the pager batching
// exactly when the FS does, runs every storage case on it and writes the
// world's records to rec.
func storageWorld(t *testing.T, rec io.Writer, viaSB bool, cfg fs.Config) {
	t.Helper()
	batch := cfg.BatchIO
	name := fmt.Sprintf("sb=%v batch=%v fine=%v", viaSB, batch, cfg.Lock == fs.LockFine)
	fmt.Fprintf(rec, "world %s\n", name)
	w := MustWorld(WorldConfig{Flavor: mk.SeL4, Cores: 2, MemBytes: 1 << 30, SkyBridge: viaSB})
	k := w.K
	devProc, fsProc, cli := k.NewProcess("blockdev"), k.NewProcess("fs"), k.NewProcess("client")
	dev := blockdev.New(devProc, 2048)
	devCrash := &crashConn{}
	var f *fs.FS
	var fsConn func(env *mk.Env) (svc.Conn, error)
	var eps []*mk.Endpoint
	if viaSB {
		var devID, fsID int
		devProc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
			var err error
			if devID, err = svc.RegisterSkyBridgeServer(w.SB, env, 8, dev.Handler()); err != nil {
				t.Errorf("%s: register device: %v", name, err)
			}
		})
		w.mustRun()
		fsProc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
			var err error
			if devCrash.inner, err = svc.NewSkyBridge(w.SB, env, devID); err != nil {
				t.Errorf("%s: bind device: %v", name, err)
				return
			}
			f = fs.NewFS(fsProc, devCrash, cfg)
			if err = f.Mkfs(env, dev.Blocks(), 64); err != nil {
				t.Errorf("%s: mkfs: %v", name, err)
				return
			}
			if fsID, err = svc.RegisterSkyBridgeServer(w.SB, env, 8, f.Handler()); err != nil {
				t.Errorf("%s: register fs: %v", name, err)
			}
		})
		w.mustRun()
		fsConn = func(env *mk.Env) (svc.Conn, error) { return svc.NewSkyBridge(w.SB, env, fsID) }
	} else {
		devEP, fsEP := k.NewEndpoint("dev"), k.NewEndpoint("fs")
		eps = []*mk.Endpoint{devEP, fsEP}
		devProc.Spawn("srv", k.Mach.Cores[1], func(env *mk.Env) { svc.ServeIPC(env, devEP, dev.Handler()) })
		devCrash.inner = svc.NewIPC(fsProc, devEP)
		f = fs.NewFS(fsProc, devCrash, cfg)
		fsProc.Spawn("srv", k.Mach.Cores[0], func(env *mk.Env) {
			if err := f.Mkfs(env, dev.Blocks(), 64); err != nil {
				t.Errorf("%s: mkfs: %v", name, err)
				return
			}
			svc.ServeIPC(env, fsEP, f.Handler())
		})
		fsConn = func(*mk.Env) (svc.Conn, error) { return svc.NewIPC(cli, fsEP), nil }
	}

	// The reboot after the file-system crash mounts a second FS instance
	// in the FS process, on a thread that waits for the client's signal.
	var crashed, rebooted sim.WaitQueue
	fsProc.Spawn("reboot", k.Mach.Cores[0], func(env *mk.Env) {
		crashed.Wait(env.T)
		devCrash.armed = false
		f2 := fs.NewFS(fsProc, devCrash, cfg)
		if err := f2.Mount(env); err != nil {
			t.Errorf("%s: remount: %v", name, err)
		} else {
			fd, size, err := f2.Open(env, "plain", false)
			var data []byte
			if err == nil {
				data, err = f2.Read(env, fd, 0, int(size))
			}
			if err != nil {
				t.Errorf("%s: read after recovery: %v", name, err)
			}
			fmt.Fprintf(rec, "step fs-recovery now=%d size=%d data=%x\n", env.Now(), size, sha256.Sum256(data))
			fmt.Fprintf(rec, "  fs2 cache=%v dev reads=%d writes=%d\n", cacheStats(f2), dev.Reads, dev.Writes)
		}
		rebooted.WakeOne(w.Eng, env.Now(), nil)
	})

	cli.Spawn("app", k.Mach.Cores[1], func(env *mk.Env) {
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
		}()
		conn, err := fsConn(env)
		if err != nil {
			t.Errorf("%s: bind fs: %v", name, err)
			return
		}
		cc := &crashConn{inner: conn}
		fsc := &fs.Client{Conn: cc}
		d, err := db.OpenIO(env, cli, fsc, "golden.db", db.PagerIO{Batch: batch})
		if err != nil {
			t.Errorf("%s: open: %v", name, err)
			return
		}
		step := func(what string, rows []string) {
			p := d.Pager()
			fmt.Fprintf(rec, "step %s now=%d pager hits=%d misses=%d reads=%d writes=%d fs cache=%v dev reads=%d writes=%d\n",
				what, env.Now(), p.Hits, p.Misses, p.FsReads, p.FsWrites, cacheStats(f), dev.Reads, dev.Writes)
			for _, r := range rows {
				fmt.Fprintf(rec, "  %s\n", r)
			}
		}
		exec := func(sql string) []string {
			r, err := d.Exec(env, sql)
			if err != nil {
				t.Errorf("%s: %s: %v", name, sql, err)
				return nil
			}
			out := []string{fmt.Sprintf("%s -> affected=%d cols=%v", sql, r.Affected, r.Columns)}
			for _, row := range r.Rows {
				out = append(out, fmt.Sprint(row))
			}
			return out
		}
		scan := func(tab *db.Table, start int64, limit int) []string {
			var out []string
			err := tab.ScanFrom(env, start, func(rowid int64, vals []db.Value) bool {
				out = append(out, fmt.Sprintf("%d:%s", rowid, short(vals)))
				return len(out) < limit
			})
			if err != nil {
				t.Errorf("%s: scan %s from %d: %v", name, tab.Name, start, err)
			}
			return out
		}

		// SQL over a non-key column: predicates that scan the table.
		var rows []string
		rows = append(rows, exec("CREATE TABLE s (id INTEGER PRIMARY KEY, name TEXT, grp INTEGER)")...)
		for i := 0; i < 40; i++ {
			exec(fmt.Sprintf("INSERT INTO s VALUES (%d, 'n%d', %d)", i*3, i, i%5))
		}
		rows = append(rows, exec("SELECT * FROM s WHERE grp = 3")...)
		rows = append(rows, exec("SELECT name, id FROM s WHERE name = 'n17'")...)
		rows = append(rows, exec("UPDATE s SET name = 'upd', grp = 9 WHERE grp = 2")...)
		rows = append(rows, exec("DELETE FROM s WHERE grp = 1")...)
		rows = append(rows, exec("SELECT * FROM s")...)
		step("sql-nonkey", rows)

		// A table without an integer primary key: every insert takes
		// max rowid + 1, and the tree grows to two levels.
		exec("CREATE TABLE n (a TEXT, b INTEGER)")
		nt, _ := d.TableByName("n")
		rows = nil
		for i := 0; i < 30; i++ {
			id, err := nt.Insert(env, []db.Value{db.TextValue(strings.Repeat(string(rune('a'+i%26)), 900)), db.IntValue(int64(i))})
			if err != nil {
				t.Errorf("%s: insert n: %v", name, err)
				return
			}
			rows = append(rows, fmt.Sprint(id))
		}
		rows = append(rows, exec("SELECT b FROM n WHERE b = 29")...)
		step("maxkey", rows)

		// A three-level tree: one 1,400-byte row per leaf after the
		// sequential splits, more leaves than one interior page holds.
		exec("CREATE TABLE m (id INTEGER PRIMARY KEY, v TEXT)")
		mt, _ := d.TableByName("m")
		const mrows = 360
		for i := 0; i < mrows; i += 20 {
			if err := d.Begin(env); err != nil {
				t.Errorf("%s: begin: %v", name, err)
				return
			}
			for j := i; j < i+20; j++ {
				v := fmt.Sprintf("%04d", j) + strings.Repeat("v", 1396)
				if _, err := mt.Insert(env, []db.Value{db.IntValue(int64(j * 2)), db.TextValue(v)}); err != nil {
					t.Errorf("%s: insert m: %v", name, err)
					return
				}
			}
			if err := d.Commit(env); err != nil {
				t.Errorf("%s: commit: %v", name, err)
				return
			}
		}
		step("deep-load", nil)
		rows = nil
		for _, start := range []int64{math.MinInt64, -5, 0, 301, 350, 680, 719, 720, 10_000} {
			rows = append(rows, fmt.Sprintf("from %d: %v", start, scan(mt, start, 30)))
		}
		step("deep-scanfrom", rows)
		rows = nil
		for _, key := range []int64{0, 2, 341, 342, 400, 678, 680, 718, 719, 999} {
			ok, err := mt.Delete(env, key)
			if err != nil {
				t.Errorf("%s: delete %d: %v", name, key, err)
				return
			}
			rows = append(rows, fmt.Sprintf("delete %d: %v", key, ok))
		}
		all := scan(mt, math.MinInt64, 1<<30)
		rows = append(rows, fmt.Sprintf("rows %d first %v last %v", len(all), all[:3], all[len(all)-3:]))
		rows = append(rows, fmt.Sprintf("from 340: %v", scan(mt, 340, 4)))
		step("deep-delete", rows)

		// Rollback of an open transaction that changed one page.
		rows = exec("BEGIN")
		rows = append(rows, exec("UPDATE s SET name = 'gone' WHERE id = 6")...)
		rows = append(rows, exec("INSERT INTO s VALUES (1000, 'x', 1)")...)
		rows = append(rows, exec("ROLLBACK")...)
		rows = append(rows, exec("SELECT * FROM s WHERE id = 6")...)
		rows = append(rows, exec("SELECT * FROM s WHERE id = 1000")...)
		step("rollback", rows)

		// Hot journal: one transaction over three pages commits its
		// journal, both fsyncs and the page writeback, and then the
		// journal truncate is lost. Reopening rolls the database back to
		// before the transaction.
		exec("BEGIN")
		exec("UPDATE s SET name = 'torn' WHERE grp = 3")
		exec("UPDATE m SET v = 'torn' WHERE id = 100")
		exec("UPDATE m SET v = 'torn' WHERE id = 500")
		cc.arm(fs.OpFsync, 2)
		exec("COMMIT")
		cc.armed = false
		d, err = db.OpenIO(env, cli, fsc, "golden.db", db.PagerIO{Batch: batch})
		if err != nil {
			t.Errorf("%s: reopen: %v", name, err)
			return
		}
		rows = exec("SELECT id, name FROM s WHERE grp = 3")
		mt, _ = d.TableByName("m")
		rows = append(rows, scan(mt, 100, 1)...)
		rows = append(rows, scan(mt, 500, 1)...)
		step("hot-journal", rows)

		// FS crash: the commit's log blocks, header and first flush reach
		// the device; the installs, the header clear and the last flush
		// are lost. The reboot thread mounts a fresh FS, which replays
		// the log.
		fd, _, err := fsc.Open(env, "plain", true)
		if err != nil {
			t.Errorf("%s: create plain: %v", name, err)
			return
		}
		data := bytes.Repeat([]byte("0123456789abcdef"), 3*blockdev.BlockSize/16+40)
		devCrash.arm(blockdev.OpFlush, 1)
		if err := fsc.WriteAt(env, fd, 0, data); err != nil {
			t.Errorf("%s: write plain: %v", name, err)
			return
		}
		fmt.Fprintf(rec, "step fs-crash now=%d want=%x\n", env.Now(), sha256.Sum256(data))
		crashed.WakeOne(w.Eng, env.Now(), nil)
		rebooted.Wait(env.T)

		m := env.T.Core.Machine()
		for _, cpu := range m.Cores {
			fmt.Fprintf(rec, "cpu%d clock=%d counters=%+v dtlb=%+v l1d=%+v l2=%+v\n",
				cpu.ID, cpu.Clock, cpu.Counters, cpu.DTLB.Stats, cpu.L1D.Stats, cpu.L2.Stats)
		}
		fmt.Fprintf(rec, "l3=%+v\n", m.L3.Stats)
	})
	if err := w.Eng.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// cacheStats formats an FS's buffer-cache hits, misses and commits.
func cacheStats(f *fs.FS) string {
	h, m, c := f.Cache()
	return fmt.Sprintf("%d/%d/%d", h, m, c)
}

// short renders a row with long text values cut to their first bytes.
func short(vals []db.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		s := v.String()
		if len(s) > 12 {
			s = fmt.Sprintf("%s..(%d)", s[:12], len(s))
		}
		b.WriteString(s)
	}
	return b.String()
}
