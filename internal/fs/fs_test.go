package fs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"skybridge/internal/blockdev"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// fsWorld builds a single-process world (Baseline transport) with a
// formatted big-lock file system, and runs body on a thread in it.
func fsWorld(t *testing.T, blocks int, body func(env *mk.Env, f *FS, c *Client)) {
	t.Helper()
	fsWorldCfg(t, blocks, Config{}, body)
}

// fsWorldCfg is fsWorld with an explicit lock/IO configuration, so the
// same tests cover the big lock and the fine-grained replacement.
func fsWorldCfg(t *testing.T, blocks int, cfg Config, body func(env *mk.Env, f *FS, c *Client)) {
	t.Helper()
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("fsworld")
	dev := blockdev.New(p, blocks)
	f := NewFS(p, svc.NewLocal(dev.Handler()), cfg)
	c := &Client{Conn: svc.NewLocal(f.Handler())}
	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, blocks, 128); err != nil {
			t.Errorf("mkfs: %v", err)
			return
		}
		body(env, f, c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// lockModes enumerates the two FS configurations the shared tests sweep.
var lockModes = []struct {
	name string
	cfg  Config
}{
	{"biglock", Config{}},
	{"finelock", Config{Lock: LockFine}},
}

func TestMkfsAndMount(t *testing.T) {
	fsWorld(t, 512, func(env *mk.Env, f *FS, c *Client) {
		sb := f.Superblock()
		if sb.Magic != Magic || sb.Size != 512 {
			t.Errorf("superblock %+v", sb)
		}
		if sb.DataStart <= sb.BmapStart {
			t.Error("layout overlap")
		}
	})
}

func TestCreateWriteRead(t *testing.T) {
	fsWorld(t, 512, func(env *mk.Env, f *FS, c *Client) {
		fd, size, err := c.Open(env, "hello.txt", true)
		if err != nil {
			t.Error(err)
			return
		}
		if size != 0 {
			t.Errorf("new file size %d", size)
		}
		msg := []byte("hello, file system")
		if err := c.WriteAt(env, fd, 0, msg); err != nil {
			t.Error(err)
			return
		}
		got, err := c.ReadAt(env, fd, 0, len(msg))
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("read %q", got)
		}
		// Reopen sees the same size.
		fd2, size2, err := c.Open(env, "hello.txt", false)
		if err != nil || size2 != uint64(len(msg)) {
			t.Errorf("reopen: fd=%d size=%d err=%v", fd2, size2, err)
		}
	})
}

func TestWriteAtOffsetsAndHoles(t *testing.T) {
	fsWorld(t, 1024, func(env *mk.Env, f *FS, c *Client) {
		fd, _, _ := c.Open(env, "holes", true)
		// Write beyond a hole.
		if err := c.WriteAt(env, fd, 3*BlockSize+10, []byte("tail")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.ReadAt(env, fd, 0, BlockSize)
		if err != nil {
			t.Error(err)
			return
		}
		for _, b := range got {
			if b != 0 {
				t.Error("hole not zero")
				break
			}
		}
		got, _ = c.ReadAt(env, fd, 3*BlockSize+10, 4)
		if string(got) != "tail" {
			t.Errorf("tail = %q", got)
		}
	})
}

func TestLargeFileThroughIndirects(t *testing.T) {
	// A file spanning direct + single-indirect + into double-indirect
	// blocks: > (12 + 512) * 4096 bytes would need 2 GiB of sim memory to
	// be fun; instead write sparse probes at the boundaries.
	fsWorld(t, 4096, func(env *mk.Env, f *FS, c *Client) {
		fd, _, _ := c.Open(env, "big", true)
		probes := []int{
			0,                                       // direct
			(NDirect - 1) * BlockSize,               // last direct
			NDirect * BlockSize,                     // first single-indirect
			(NDirect + 5) * BlockSize,               // inside single-indirect
			(NDirect + NIndirect) * BlockSize,       // first double-indirect
			(NDirect + NIndirect + 700) * BlockSize, // into second L2 table
		}
		for i, off := range probes {
			payload := []byte(fmt.Sprintf("probe-%d", i))
			if err := c.WriteAt(env, fd, off, payload); err != nil {
				t.Errorf("probe %d: %v", i, err)
				return
			}
		}
		for i, off := range probes {
			want := fmt.Sprintf("probe-%d", i)
			got, err := c.ReadAt(env, fd, off, len(want))
			if err != nil || string(got) != want {
				t.Errorf("probe %d: %q err=%v", i, got, err)
			}
		}
	})
}

func TestUnlinkFreesBlocks(t *testing.T) {
	fsWorld(t, 512, func(env *mk.Env, f *FS, c *Client) {
		countFree := func() int {
			n := 0
			for bn := int(f.sb.DataStart); bn < int(f.sb.Size); bn++ {
				b, _ := f.bc.get(env, int(f.sb.BmapStart)+bn/(BlockSize*8))
				bi := bn % (BlockSize * 8)
				if b.data[bi/8]&(1<<(bi%8)) == 0 {
					n++
				}
			}
			return n
		}
		// Warm the root directory's data block so it does not perturb the
		// free-block accounting below.
		c.Open(env, "warmup", true)
		before := countFree()
		fd, _, _ := c.Open(env, "victim", true)
		data := make([]byte, 8*BlockSize)
		if err := c.WriteAt(env, fd, 0, data[:4*hw.PageSize]); err != nil {
			t.Error(err)
			return
		}
		if countFree() >= before {
			t.Error("write did not consume blocks")
		}
		if err := c.Unlink(env, "victim"); err != nil {
			t.Error(err)
			return
		}
		if got := countFree(); got != before {
			t.Errorf("unlink leaked blocks: %d free, want %d", got, before)
		}
		if _, _, err := c.Open(env, "victim", false); err == nil {
			t.Error("unlinked file still opens")
		}
	})
}

func TestMultipleFiles(t *testing.T) {
	fsWorld(t, 1024, func(env *mk.Env, f *FS, c *Client) {
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("file-%d", i)
			fd, _, err := c.Open(env, name, true)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.WriteAt(env, fd, 0, []byte(name)); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("file-%d", i)
			fd, size, err := c.Open(env, name, false)
			if err != nil || size != uint64(len(name)) {
				t.Errorf("%s: size=%d err=%v", name, size, err)
				continue
			}
			got, _ := c.ReadAt(env, fd, 0, len(name))
			if string(got) != name {
				t.Errorf("%s contains %q", name, got)
			}
		}
	})
}

func TestTruncate(t *testing.T) {
	fsWorld(t, 512, func(env *mk.Env, f *FS, c *Client) {
		fd, _, _ := c.Open(env, "t", true)
		c.WriteAt(env, fd, 0, make([]byte, 3*BlockSize))
		if err := c.Truncate(env, fd); err != nil {
			t.Error(err)
			return
		}
		size, _ := c.Stat(env, fd)
		if size != 0 {
			t.Errorf("size after truncate = %d", size)
		}
	})
}

// TestCrashRecovery simulates the log's crash consistency: a committed but
// uninstalled transaction is replayed by recover; an uncommitted one
// vanishes.
func TestCrashRecovery(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("crash")
	dev := blockdev.New(p, 512)
	devConn := svc.NewLocal(dev.Handler())
	f := NewFS(p, devConn, Config{})
	p.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, 512, 64); err != nil {
			t.Error(err)
			return
		}
		fd, _, _ := f.Open(env, "data", true)
		f.Write(env, fd, 0, []byte("stable-data!")) // >= 10 bytes so the recovered prefix is readable

		// Build a "committed but not installed" state by hand: write log
		// blocks + header for an update of the file's data block, without
		// installing.
		d, _ := f.readInode(env, f.fds[fd])
		dataBlock := int(d.Addrs[0])
		victim := make([]byte, BlockSize)
		copy(victim, "recovered!")
		cli := &blockdev.Client{Conn: devConn}
		cli.WriteBlock(env, int(f.sb.LogStart)+1, victim)
		hdr := make([]byte, BlockSize)
		binary.LittleEndian.PutUint64(hdr, 1)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(dataBlock))
		cli.WriteBlock(env, int(f.sb.LogStart), hdr)

		// "Reboot": a fresh FS instance mounts and recovers.
		f2 := NewFS(p, devConn, Config{})
		if err := f2.Mount(env); err != nil {
			t.Error(err)
			return
		}
		fd2, _, err := f2.Open(env, "data", false)
		if err != nil {
			t.Error(err)
			return
		}
		got, _ := f2.Read(env, fd2, 0, 10)
		if string(got) != "recovered!" {
			t.Errorf("after recovery: %q", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFSOverIPC runs the FS as a real IPC server with the device as
// another IPC server — the full three-tier pipeline of the paper.
func TestFSOverIPC(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 4, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	devProc := k.NewProcess("blockdev")
	fsProc := k.NewProcess("fs")
	appProc := k.NewProcess("app")

	dev := blockdev.New(devProc, 512)
	devEP := k.NewEndpoint("dev")
	fsEP := k.NewEndpoint("fs")

	devProc.Spawn("srv", k.Mach.Cores[0], func(env *mk.Env) {
		svc.ServeIPC(env, devEP, dev.Handler())
	})

	f := NewFS(fsProc, svc.NewIPC(fsProc, devEP), Config{})
	fsProc.Spawn("srv", k.Mach.Cores[0], func(env *mk.Env) {
		if err := f.Mkfs(env, 512, 64); err != nil {
			t.Errorf("mkfs: %v", err)
			return
		}
		svc.ServeIPC(env, fsEP, f.Handler())
	})

	appProc.Spawn("app", k.Mach.Cores[0], func(env *mk.Env) {
		c := &Client{Conn: svc.NewIPC(appProc, fsEP)}
		fd, _, err := c.Open(env, "ipc-file", true)
		if err != nil {
			t.Error(err)
			return
		}
		msg := []byte("written through two IPC hops")
		if err := c.WriteAt(env, fd, 0, msg); err != nil {
			t.Error(err)
			return
		}
		got, err := c.ReadAt(env, fd, 0, len(msg))
		if err != nil || !bytes.Equal(got, msg) {
			t.Errorf("got %q err=%v", got, err)
		}
		fsEP.Close()
		devEP.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if k.IPCCalls == 0 {
		t.Fatal("no IPC recorded in the three-tier pipeline")
	}
}
