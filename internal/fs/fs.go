package fs

import (
	"fmt"

	"skybridge/internal/blockdev"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// rootInum is the root directory's inode.
const rootInum = 1

// LockMode selects the FS's concurrency discipline.
type LockMode int

const (
	// LockBig serializes every operation behind one kernel-backed lock —
	// the paper's xv6fs port, and the cause of Figures 9-11's negative
	// scaling.
	LockBig LockMode = iota
	// LockFine replaces the big lock with per-inode stripe locks, a
	// sharded buffer cache, and a group-commit log that admits readers
	// while a commit is in flight.
	LockFine
)

// Config selects the FS's locking discipline and device-IO routing.
type Config struct {
	Lock LockMode
	// BatchIO folds the commit protocol's block writes (and recovery's
	// reads) into batched transport crossings (core.DirectCallBatch when
	// the device connection is a SkyBridge one).
	BatchIO bool
}

// nstripes is the inode-lock stripe count (LockFine). The root
// directory's stripe doubles as the namespace lock: Open/Close/Unlink
// take it first, so the only nested stripe order is root → target.
const nstripes = 32

// FS is the file-system server state.
type FS struct {
	Proc *mk.Process
	dev  *blockdev.Client
	sb   *Superblock
	bc   *bcache
	cfg  Config

	// Lock is the single big lock serializing every operation (§6.5). It
	// is kernel-backed: contended handoff goes through the kernel (with
	// cross-core IPIs), which is what makes the FS the scalability
	// bottleneck of Figures 9-11. Unused when cfg.Lock is LockFine.
	Lock *mk.KMutex

	// stripes/alloclk are the LockFine replacement: inum%nstripes picks
	// the stripe serializing operations on an inode, and alloclk covers
	// the block allocator's read-bit→write-bit window (which can park on
	// a cache-shard lock, so it needs its own exclusion).
	stripes []*mk.KMutex
	alloclk *mk.KMutex

	fds    map[uint64]uint64 // fd -> inum
	nextFD uint64
}

// NewFS creates an FS server bound to a device connection, with the
// cache region allocated inside proc. The zero Config is the paper's
// big-lock xv6fs with one device call per block.
func NewFS(proc *mk.Process, dev svc.Conn, cfg Config) *FS {
	f := &FS{
		Proc:   proc,
		dev:    &blockdev.Client{Conn: dev},
		cfg:    cfg,
		fds:    make(map[uint64]uint64),
		nextFD: 3,
		Lock:   proc.Kernel().NewKMutex("fs.biglock"),
	}
	if cfg.Lock == LockFine {
		k := proc.Kernel()
		f.stripes = make([]*mk.KMutex, nstripes)
		for i := range f.stripes {
			f.stripes[i] = k.NewKMutex(fmt.Sprintf("fs.stripe%d", i))
		}
		f.alloclk = k.NewKMutex("fs.alloc")
	}
	return f
}

// fine reports whether fine-grained locking is active.
func (f *FS) fine() bool { return f.cfg.Lock == LockFine }

// stripe returns the lock covering inum in fine mode.
func (f *FS) stripe(inum uint64) *mk.KMutex { return f.stripes[inum%nstripes] }

// lockNS acquires the namespace lock — the big lock, or the root
// directory's stripe (which also guards the fd table and inode
// allocation) in fine mode — and returns its unlock.
func (f *FS) lockNS(env *mk.Env) func() {
	m := f.Lock
	if f.fine() {
		m = f.stripe(rootInum)
	}
	m.Lock(env)
	return func() { m.Unlock(env) }
}

// lockFD resolves fd and acquires the lock covering its inode. In fine
// mode the fd-table lookup itself needs no lock: it crosses no park
// point, so the DES executes it atomically; the inode's stripe then
// serializes the operation.
func (f *FS) lockFD(env *mk.Env, fd uint64) (uint64, func(), error) {
	if !f.fine() {
		f.Lock.Lock(env)
		inum, ok := f.fds[fd]
		if !ok {
			f.Lock.Unlock(env)
			return 0, nil, fmt.Errorf("fs: bad fd %d", fd)
		}
		return inum, func() { f.Lock.Unlock(env) }, nil
	}
	inum, ok := f.fds[fd]
	if !ok {
		return 0, nil, fmt.Errorf("fs: bad fd %d", fd)
	}
	st := f.stripe(inum)
	st.Lock(env)
	return inum, func() { st.Unlock(env) }, nil
}

// begin opens a log transaction: exclusive under the big lock, a
// group-commit reservation in fine mode.
func (f *FS) begin(env *mk.Env) {
	if f.fine() {
		f.bc.reserve(env)
	} else {
		f.bc.beginTx()
	}
}

// end closes the transaction begun by begin. Under the big lock it
// commits immediately; in fine mode the last releaser of an overlapping
// group commits for everyone.
func (f *FS) end(env *mk.Env) error {
	if f.fine() {
		return f.bc.release(env)
	}
	return f.bc.commitTx(env)
}

// tx runs op inside one transaction. The transaction ends whether or not
// op fails, and op's error wins over the commit's.
func (f *FS) tx(env *mk.Env, op func() error) error {
	f.begin(env)
	err := op()
	if endErr := f.end(env); err == nil {
		err = endErr
	}
	return err
}

// Mkfs formats the device and mounts the file system.
func (f *FS) Mkfs(env *mk.Env, totalBlocks, ninodes int) error {
	inodeBlocks := (ninodes + InodesPerBlock - 1) / InodesPerBlock
	bmapBlocks := (totalBlocks + BlockSize*8 - 1) / (BlockSize * 8)
	sb := &Superblock{
		Magic:      Magic,
		Size:       uint64(totalBlocks),
		NInodes:    uint64(ninodes),
		LogStart:   1,
		InodeStart: uint64(1 + 1 + LogBlocks),
		BmapStart:  uint64(1 + 1 + LogBlocks + inodeBlocks),
		DataStart:  uint64(1 + 1 + LogBlocks + inodeBlocks + bmapBlocks),
	}
	if err := f.dev.WriteBlock(env, 0, sb.encode()); err != nil {
		return err
	}
	zero := make([]byte, BlockSize)
	// Clear the log header, inode blocks, and bitmap.
	if err := f.dev.WriteBlock(env, int(sb.LogStart), zero); err != nil {
		return err
	}
	for i := 0; i < inodeBlocks; i++ {
		if err := f.dev.WriteBlock(env, int(sb.InodeStart)+i, zero); err != nil {
			return err
		}
	}
	// Bitmap: metadata blocks (everything below DataStart) are in use.
	for i := 0; i < bmapBlocks; i++ {
		bm := make([]byte, BlockSize)
		for bn := i * BlockSize * 8; bn < (i+1)*BlockSize*8 && bn < totalBlocks; bn++ {
			if uint64(bn) < sb.DataStart {
				bm[(bn%(BlockSize*8))/8] |= 1 << (bn % 8)
			}
		}
		if err := f.dev.WriteBlock(env, int(sb.BmapStart)+i, bm); err != nil {
			return err
		}
	}
	if err := f.Mount(env); err != nil {
		return err
	}
	// Root directory: inode 1.
	return f.tx(env, func() error { return f.writeInode(env, rootInum, dinode{Type: TypeDir, Nlink: 1}) })
}

// Mount reads the superblock and replays any committed log.
func (f *FS) Mount(env *mk.Env) error {
	blk, err := f.dev.ReadBlock(env, 0)
	if err != nil {
		return err
	}
	sb, err := decodeSuperblock(blk)
	if err != nil {
		return err
	}
	f.sb = sb
	region := f.Proc.Alloc(nbuf * BlockSize)
	f.bc = newBcache(f.dev, region, int(sb.LogStart), nbuf, f.cfg, f.Proc.Kernel())
	return f.bc.recover(env)
}

// Superblock returns the mounted superblock.
func (f *FS) Superblock() *Superblock { return f.sb }

// Cache exposes buffer-cache statistics.
func (f *FS) Cache() (hits, misses, commits uint64) {
	hits, misses = f.bc.stats()
	return hits, misses, f.bc.Commits
}

// LockStats sums the acquisition/contention counters over every lock the
// configured mode uses (the big lock, or the stripes plus the allocator
// and log locks), so biglock and finelock cells report comparable totals.
func (f *FS) LockStats() (acq, contended, waitCycles, wakeIPIs uint64) {
	add := func(m *mk.KMutex) {
		if m == nil {
			return
		}
		acq += m.Acquisitions
		contended += m.Contended
		waitCycles += m.WaitCycles
		wakeIPIs += m.WakeIPIs
	}
	add(f.Lock)
	for _, st := range f.stripes {
		add(st)
	}
	add(f.alloclk)
	if f.bc != nil {
		add(f.bc.loglk)
		if f.bc.logCond != nil {
			wakeIPIs += f.bc.logCond.WakeIPIs
		}
	}
	return acq, contended, waitCycles, wakeIPIs
}

// --- directory operations (single root directory, like the paper's port) ---

func (f *FS) dirLookup(env *mk.Env, name string) (uint64, bool, error) {
	d, err := f.readInode(env, rootInum)
	if err != nil {
		return 0, false, err
	}
	for off := 0; off < int(d.Size); off += DirentSize {
		raw, err := f.readi(env, rootInum, off, DirentSize)
		if err != nil {
			return 0, false, err
		}
		de := decodeDirent(raw)
		if de.Inum != 0 && de.Name == name {
			return de.Inum, true, nil
		}
	}
	return 0, false, nil
}

func (f *FS) dirLink(env *mk.Env, name string, inum uint64) error {
	if len(name) > MaxNameLen {
		return fmt.Errorf("fs: name %q too long", name)
	}
	d, err := f.readInode(env, rootInum)
	if err != nil {
		return err
	}
	// Reuse a free slot if any.
	slot := int(d.Size)
	for off := 0; off < int(d.Size); off += DirentSize {
		raw, err := f.readi(env, rootInum, off, DirentSize)
		if err != nil {
			return err
		}
		if decodeDirent(raw).Inum == 0 {
			slot = off
			break
		}
	}
	img := make([]byte, DirentSize)
	de := dirent{Inum: inum, Name: name}
	de.encode(img)
	return f.writei(env, rootInum, slot, img)
}

func (f *FS) dirUnlink(env *mk.Env, name string) (uint64, error) {
	d, err := f.readInode(env, rootInum)
	if err != nil {
		return 0, err
	}
	for off := 0; off < int(d.Size); off += DirentSize {
		raw, err := f.readi(env, rootInum, off, DirentSize)
		if err != nil {
			return 0, err
		}
		de := decodeDirent(raw)
		if de.Inum != 0 && de.Name == name {
			img := make([]byte, DirentSize)
			if err := f.writei(env, rootInum, off, img); err != nil {
				return 0, err
			}
			return de.Inum, nil
		}
	}
	return 0, fmt.Errorf("fs: unlink %q: not found", name)
}

// --- file operations ---
//
// Under the big lock every operation takes f.Lock. In fine mode the
// stripe covering the operated-on inode serializes the operation; the
// root stripe doubles as the namespace/fd-table lock; and a transaction
// is a group-commit reservation. Lock order is: root stripe → target
// stripe → reservation → alloclk → shard locks, with loglk a leaf. A
// stripe is never acquired while a reservation is held — a reservation
// holder waiting on a stripe whose owner is waiting for log capacity
// would deadlock.

// Open opens (optionally creating) a file, returning (fd, size).
func (f *FS) Open(env *mk.Env, name string, create bool) (uint64, uint64, error) {
	unlock := f.lockNS(env)
	defer unlock()

	inum, ok, err := f.dirLookup(env, name)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		if !create {
			return 0, 0, fmt.Errorf("fs: open %q: not found", name)
		}
		err = f.tx(env, func() error {
			if inum, err = f.allocInode(env, TypeFile); err != nil {
				return err
			}
			return f.dirLink(env, name, inum)
		})
		if err != nil {
			return 0, 0, err
		}
	}
	d, err := f.readInode(env, inum)
	if err != nil {
		return 0, 0, err
	}
	fd := f.nextFD
	f.nextFD++
	f.fds[fd] = inum
	return fd, d.Size, nil
}

// Read reads n bytes at off from fd.
func (f *FS) Read(env *mk.Env, fd uint64, off, n int) ([]byte, error) {
	inum, unlock, err := f.lockFD(env, fd)
	if err != nil {
		return nil, err
	}
	defer unlock()
	return f.readi(env, inum, off, n)
}

// Write writes data at off into fd. Each write is one log transaction.
func (f *FS) Write(env *mk.Env, fd uint64, off int, data []byte) (int, error) {
	inum, unlock, err := f.lockFD(env, fd)
	if err != nil {
		return 0, err
	}
	defer unlock()
	if err := f.tx(env, func() error { return f.writei(env, inum, off, data) }); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Stat returns the file size.
func (f *FS) Stat(env *mk.Env, fd uint64) (uint64, error) {
	inum, unlock, err := f.lockFD(env, fd)
	if err != nil {
		return 0, err
	}
	defer unlock()
	d, err := f.readInode(env, inum)
	if err != nil {
		return 0, err
	}
	return d.Size, nil
}

// Close releases a descriptor.
func (f *FS) Close(env *mk.Env, fd uint64) error {
	unlock := f.lockNS(env)
	defer unlock()
	if _, ok := f.fds[fd]; !ok {
		return fmt.Errorf("fs: bad fd %d", fd)
	}
	delete(f.fds, fd)
	return nil
}

// Truncate empties a file.
func (f *FS) Truncate(env *mk.Env, fd uint64) error {
	inum, unlock, err := f.lockFD(env, fd)
	if err != nil {
		return err
	}
	defer unlock()
	return f.tx(env, func() error { return f.itrunc(env, inum) })
}

// Unlink removes a file name and frees its inode and blocks.
func (f *FS) Unlink(env *mk.Env, name string) error {
	unlock := f.lockNS(env)
	defer unlock()
	if f.fine() {
		// Take the target's stripe before reserving: a pre-lookup finds
		// the inode so the root → target stripe order holds without a
		// reservation in hand.
		inum, ok, err := f.dirLookup(env, name)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("fs: unlink %q: not found", name)
		}
		if st := f.stripe(inum); st != f.stripe(rootInum) {
			st.Lock(env)
			defer st.Unlock(env)
		}
	}
	return f.tx(env, func() error {
		inum, err := f.dirUnlink(env, name)
		if err != nil {
			return err
		}
		if err := f.itrunc(env, inum); err != nil {
			return err
		}
		return f.writeInode(env, inum, dinode{})
	})
}

// Fsync flushes the device (the log already commits per write). In fine
// mode it first drains in-flight reservations and commits the logged
// group, so a returning Fsync means everything submitted before it is
// durable.
func (f *FS) Fsync(env *mk.Env) error {
	if f.fine() {
		if err := f.bc.drain(env); err != nil {
			return err
		}
		return f.dev.Flush(env)
	}
	f.Lock.Lock(env)
	defer f.Lock.Unlock(env)
	return f.dev.Flush(env)
}

// --- service interface ---

// Service opcodes.
const (
	OpOpen uint64 = iota + 1
	OpCreate
	OpRead
	OpWrite
	OpStat
	OpClose
	OpUnlink
	OpTruncate
	OpFsync
)

// Status codes.
const (
	StatusOK  = svc.StatusOK
	StatusErr = 1
)

// maxIO bounds a single read/write payload (the transport buffer size).
const maxIO = 4 * hw.PageSize

// Handler returns the FS's service handler.
func (f *FS) Handler() svc.Handler {
	return func(env *mk.Env, req svc.Req) svc.Resp {
		switch req.Op {
		case OpOpen, OpCreate:
			fd, size, err := f.Open(env, string(req.Data), req.Op == OpCreate)
			if err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{Vals: [3]uint64{fd, size}}
		case OpRead:
			n := int(req.Args[2])
			if n > maxIO {
				return svc.Resp{Status: StatusErr}
			}
			data, err := f.Read(env, req.Args[0], int(req.Args[1]), n)
			if err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{Data: data}
		case OpWrite:
			n, err := f.Write(env, req.Args[0], int(req.Args[1]), req.Data)
			if err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{Vals: [3]uint64{uint64(n)}}
		case OpStat:
			size, err := f.Stat(env, req.Args[0])
			if err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{Vals: [3]uint64{size}}
		case OpClose:
			if err := f.Close(env, req.Args[0]); err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{}
		case OpUnlink:
			if err := f.Unlink(env, string(req.Data)); err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{}
		case OpTruncate:
			if err := f.Truncate(env, req.Args[0]); err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{}
		case OpFsync:
			if err := f.Fsync(env); err != nil {
				return svc.Resp{Status: StatusErr}
			}
			return svc.Resp{}
		default:
			return svc.Resp{Status: StatusErr}
		}
	}
}

// Client is a typed client over a transport connection to an FS server.
type Client struct {
	Conn svc.Conn
}

// Open opens a file.
func (c *Client) Open(env *mk.Env, name string, create bool) (fd, size uint64, err error) {
	op := OpOpen
	if create {
		op = OpCreate
	}
	resp, err := c.call(env, svc.Req{Op: op, Data: []byte(name)})
	return resp.Vals[0], resp.Vals[1], err
}

// ReadAt reads n bytes at off.
func (c *Client) ReadAt(env *mk.Env, fd uint64, off, n int) ([]byte, error) {
	resp, err := c.call(env, svc.Req{Op: OpRead, Args: [3]uint64{fd, uint64(off), uint64(n)}})
	return resp.Data, err
}

// WriteAt writes data at off.
func (c *Client) WriteAt(env *mk.Env, fd uint64, off int, data []byte) error {
	_, err := c.call(env, svc.Req{Op: OpWrite, Args: [3]uint64{fd, uint64(off)}, Data: data})
	return err
}

// WriteAtBatch issues the writes (fd, offs[i], datas[i]) in submission
// order, per to a transport crossing (svc.InvokeEach). At a width above
// one each payload must fit one slot of a batched crossing — page- and
// journal-record-sized writes do (svc.PageBatch); larger writes should go
// through WriteAt.
func (c *Client) WriteAtBatch(env *mk.Env, fd uint64, per int, offs []int, datas [][]byte) error {
	return svc.InvokeEach(env, c.Conn, per, len(offs),
		func(i int) svc.Req { return svc.Req{Op: OpWrite, Args: [3]uint64{fd, uint64(offs[i])}, Data: datas[i]} },
		func(_ int, resp svc.Resp) error { return status(OpWrite, resp) })
}

// Stat returns the file size.
func (c *Client) Stat(env *mk.Env, fd uint64) (uint64, error) {
	resp, err := c.call(env, svc.Req{Op: OpStat, Args: [3]uint64{fd}})
	return resp.Vals[0], err
}

// Truncate empties the file.
func (c *Client) Truncate(env *mk.Env, fd uint64) error {
	_, err := c.call(env, svc.Req{Op: OpTruncate, Args: [3]uint64{fd}})
	return err
}

// Unlink removes a file.
func (c *Client) Unlink(env *mk.Env, name string) error {
	_, err := c.call(env, svc.Req{Op: OpUnlink, Data: []byte(name)})
	return err
}

// Fsync flushes the device.
func (c *Client) Fsync(env *mk.Env) error {
	_, err := c.call(env, svc.Req{Op: OpFsync})
	return err
}

// call invokes req and turns a failed status into an error.
func (c *Client) call(env *mk.Env, req svc.Req) (svc.Resp, error) {
	resp, err := c.Conn.Invoke(env, req)
	if err != nil {
		return svc.Resp{}, err
	}
	return resp, status(req.Op, resp)
}

// status reports a failed reply to op as an error.
func status(op uint64, resp svc.Resp) error {
	if resp.Status != StatusOK {
		return fmt.Errorf("fs: op %d failed: status %d", op, resp.Status)
	}
	return nil
}
