package fs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"skybridge/internal/blockdev"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// crashConn models power loss on the fs→blockdev connection: once armed,
// the first crashAt block writes reach the device and every later write
// (and flush) is acknowledged but silently dropped, exactly as if the
// machine died between those two device commands. Reads pass through —
// the post-crash world only reads via a fresh mount.
type crashConn struct {
	inner   svc.Conn
	armed   bool
	crashAt int
	writes  int // armed writes that reached the device
}

func (cc *crashConn) Invoke(env *mk.Env, req svc.Req) (svc.Resp, error) {
	if cc.armed && req.Op == blockdev.OpWrite {
		if cc.writes >= cc.crashAt {
			return svc.Resp{}, nil
		}
		cc.writes++
	}
	if cc.armed && req.Op == blockdev.OpFlush && cc.writes >= cc.crashAt {
		return svc.Resp{}, nil
	}
	return cc.inner.Invoke(env, req)
}

// crashRun makes a filesystem durable with oldData in "victim", then
// overwrites it with newData while the device drops every write after
// the crashAt'th, remounts a fresh FS over the surviving blocks (running
// log recovery), and asserts the file reads back as entirely old or
// entirely new. It returns how many writes the overwrite issued before
// the simulated power loss cut in, so the caller can size the sweep.
func crashRun(t *testing.T, cfg Config, crashAt int) int {
	t.Helper()
	const blocks = 1024
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("crashworld")
	dev := blockdev.New(p, blocks)
	inj := &crashConn{inner: svc.NewLocal(dev.Handler()), crashAt: crashAt}
	f1 := NewFS(p, inj, cfg)
	c1 := &Client{Conn: svc.NewLocal(f1.Handler())}

	// Old and new images span three blocks, so a torn commit would be
	// visible as a mix of the two patterns.
	n := 2*BlockSize + 512
	oldData := bytes.Repeat([]byte{'o'}, n)
	newData := bytes.Repeat([]byte{'n'}, n)

	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f1.Mkfs(env, blocks, 128); err != nil {
			t.Errorf("mkfs: %v", err)
			return
		}
		fd, _, err := c1.Open(env, "victim", true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := c1.WriteAt(env, fd, 0, oldData); err != nil {
			t.Errorf("write old: %v", err)
			return
		}
		if err := c1.Fsync(env); err != nil {
			t.Errorf("fsync old: %v", err)
			return
		}
		// Power fails partway through the overwrite's commit. The dropped
		// writes are acknowledged, so the doomed FS sees no error.
		inj.armed = true
		if err := c1.WriteAt(env, fd, 0, newData); err != nil {
			t.Errorf("write new: %v", err)
			return
		}
		if err := c1.Fsync(env); err != nil {
			t.Errorf("fsync new: %v", err)
			return
		}
		inj.armed = false

		// Reboot: a fresh FS over the raw device replays any committed log.
		f2 := NewFS(p, svc.NewLocal(dev.Handler()), cfg)
		if err := f2.Mount(env); err != nil {
			t.Errorf("crashAt %d: remount: %v", crashAt, err)
			return
		}
		c2 := &Client{Conn: svc.NewLocal(f2.Handler())}
		fd2, size, err := c2.Open(env, "victim", false)
		if err != nil {
			t.Errorf("crashAt %d: reopen: %v", crashAt, err)
			return
		}
		if int(size) != n {
			t.Errorf("crashAt %d: size %d, want %d", crashAt, size, n)
			return
		}
		var got []byte
		for off := 0; off < n; off += maxIO {
			m := min(maxIO, n-off)
			chunk, err := c2.ReadAt(env, fd2, off, m)
			if err != nil {
				t.Errorf("crashAt %d: read: %v", crashAt, err)
				return
			}
			got = append(got, chunk...)
		}
		if !bytes.Equal(got, oldData) && !bytes.Equal(got, newData) {
			t.Errorf("crashAt %d: recovered content is neither old nor new (got %q... )",
				crashAt, got[:16])
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return inj.writes
}

// TestCrashConsistency kills the device at every write boundary of a
// commit — mid log append, between header and install, mid install,
// before the header clear — for both lock configurations, and checks
// write atomicity survives recovery each time.
func TestCrashConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"biglock", Config{}},
		{"finelock", Config{Lock: LockFine}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Dry run with the crash point beyond the workload: counts the
			// overwrite's device writes and checks the uninjected path.
			total := crashRun(t, tc.cfg, 1<<30)
			// A 3-block write commits ~3 data + inode blocks twice (log +
			// install) plus header writes; anything shallower means the
			// injector missed the commit protocol.
			if total < 8 {
				t.Fatalf("overwrite issued only %d device writes; injector not covering a commit", total)
			}
			for crashAt := 0; crashAt <= total; crashAt++ {
				crashRun(t, tc.cfg, crashAt)
			}
		})
	}
}

// TestRecoverRejectsCorruptLogHeader: a log header that counts more
// blocks than the log holds fails the mount with an error instead of
// reading past the header.
func TestRecoverRejectsCorruptLogHeader(t *testing.T) {
	fsWorld(t, 2048, func(env *mk.Env, f *FS, c *Client) {
		hdr := make([]byte, BlockSize)
		binary.LittleEndian.PutUint64(hdr, 1000)
		if err := f.dev.WriteBlock(env, int(f.sb.LogStart), hdr); err != nil {
			t.Fatal(err)
		}
		if err := NewFS(f.Proc, f.dev.Conn, Config{}).Mount(env); err == nil {
			t.Error("mount over a 1000-block log header succeeded")
		}
	})
}
