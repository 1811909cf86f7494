package db

import (
	"encoding/binary"
	"strings"
	"testing"

	"skybridge/internal/blockdev"
	"skybridge/internal/fs"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// TestHotJournalRollback simulates a crash between journal commit and page
// writeback: a fresh Open must roll the database back to the pre-transaction
// state.
func TestHotJournalRollback(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("crash")
	dev := blockdev.New(p, 4096)
	f := fs.NewFS(p, svc.NewLocal(dev.Handler()), fs.Config{})
	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, 4096, 64); err != nil {
			t.Error(err)
			return
		}
		fsc := &fs.Client{Conn: svc.NewLocal(f.Handler())}
		d, err := Open(env, p, fsc, "j.db")
		if err != nil {
			t.Error(err)
			return
		}
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 100)")

		// Simulate the crash window: journal the original page images and
		// then scribble over the database pages WITHOUT clearing the
		// journal (as if we died mid-writeback).
		tab, _ := d.TableByName("t")
		d.pager.Begin()
		if _, err := tab.Update(env, 1, []Value{IntValue(1), IntValue(999)}); err != nil {
			t.Error(err)
			return
		}
		// Manually run the journal-write half of Commit, then write the
		// dirty pages home, but never truncate the journal.
		jfd, _, _ := fsc.Open(env, d.pager.jname, true)
		hdr := make([]byte, 16)
		off := PageSize
		cnt := 0
		for no, orig := range d.pager.journal {
			if orig == nil {
				continue
			}
			rec := make([]byte, 8+PageSize)
			binary.LittleEndian.PutUint64(rec, uint64(no))
			copy(rec[8:], orig)
			fsc.WriteAt(env, jfd, off, rec)
			off += len(rec)
			cnt++
		}
		binary.LittleEndian.PutUint64(hdr, journalMagic)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(cnt))
		fsc.WriteAt(env, jfd, 0, hdr)
		for i := range d.pager.cache {
			pg := &d.pager.cache[i]
			if pg.valid && pg.dirty {
				fsc.WriteAt(env, d.pager.fd, pg.no*PageSize, pg.data)
			}
		}
		// "Crash": reopen with a fresh pager; the hot journal must roll the
		// update back.
		d2, err := Open(env, p, fsc, "j.db")
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		r, err := d2.Exec(env, "SELECT v FROM t WHERE id = 1")
		if err != nil || len(r.Rows) != 1 {
			t.Errorf("select after recovery: %+v %v", r, err)
			return
		}
		if r.Rows[0][0].Int != 100 {
			t.Errorf("v = %v after rollback, want 100", r.Rows[0][0])
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalClearedAfterCommit: a completed commit leaves no hot journal,
// so reopen sees the committed data.
func TestJournalClearedAfterCommit(t *testing.T) {
	dbWorld(t, func(env *mk.Env, d *DB) {
		mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, env, d, "INSERT INTO t VALUES (1, 100)")
		mustExec(t, env, d, "UPDATE t SET v = 555 WHERE id = 1")
		// The journal file exists but is truncated.
		fsc := d.pager.fsc
		jfd, size, err := fsc.Open(env, d.pager.jname, false)
		if err != nil {
			t.Errorf("journal file missing: %v", err)
			return
		}
		_ = jfd
		if size != 0 {
			t.Errorf("journal not truncated after commit: %d bytes", size)
		}
	})
}

// TestRollbackChargesRepeat: rolling back a transaction that changed many
// pages charges the same cycles every time; the restores do not follow
// the journal map's iteration order.
func TestRollbackChargesRepeat(t *testing.T) {
	var clocks []uint64
	for r := 0; r < 4; r++ {
		dbWorld(t, func(env *mk.Env, d *DB) {
			mustExec(t, env, d, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
			tab, _ := d.TableByName("t")
			row := func(i int, fill string) []Value {
				return []Value{IntValue(int64(i)), TextValue(strings.Repeat(fill, 1500))}
			}
			for i := 0; i < 40; i++ {
				if _, err := tab.Insert(env, row(i, "x")); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, env, d, "BEGIN")
			for i := 0; i < 40; i += 2 {
				if _, err := tab.Update(env, int64(i), row(i, "y")); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, env, d, "ROLLBACK")
			clocks = append(clocks, env.Now())
		})
	}
	for _, c := range clocks[1:] {
		if c != clocks[0] {
			t.Fatalf("identical rollbacks ended at clocks %v", clocks)
		}
	}
}
