package fs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"skybridge/internal/blockdev"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// nbuf is the buffer-cache capacity in blocks (total, across shards).
const nbuf = 128

// nshards is the shard count of the fine-grained cache. Block numbers
// spread round-robin (bn % nshards), so the sequential block ranges of
// the log, bitmap, and file extents load every shard evenly. The big-lock
// configuration keeps one shard so its scan order — and therefore its
// simulated cost — matches the original single cache.
const nshards = 8

// MaxOpBlocks is the reservation quota per transaction (xv6 MAXOPBLOCKS):
// the worst case is a maxIO append that dirties four data blocks plus the
// inode, bitmap, and up to three indirect blocks. Group commit admits
// writers while len(logged) + (outstanding+1)*MaxOpBlocks fits LogBlocks.
const MaxOpBlocks = 10

// ErrCacheExhausted reports that every buffer in the relevant cache shard
// is dirty, pinned, or referenced — cache pressure, as opposed to a
// device fault. Callers test with errors.Is.
var ErrCacheExhausted = errors.New("fs: buffer cache exhausted (all blocks dirty/pinned)")

// buf is one cached block. Data is the authoritative copy while cached;
// slotVA is the block's address in the FS server's address space, used to
// charge the hardware model for every access to the cached bytes. ref
// counts get() references not yet put() back: a referenced buffer is
// never chosen as an eviction victim, so a buffer stays valid across the
// park points (lock handoffs, transport calls) its holder may cross.
type buf struct {
	bn     int
	data   []byte
	slotVA hw.VA
	dirty  bool
	pinned bool // in an uncommitted transaction; not evictable
	ref    int  // held by callers between get and put; not evictable
	lru    uint64
	valid  bool
}

// bshard is one cache shard: its own slots, index, LRU clock, and (in
// fine mode) its own kernel-backed lock. Under the big lock lk is nil —
// the big lock already serializes every access.
type bshard struct {
	lk    *mk.KMutex
	slots []buf
	index map[int]*buf
	clock uint64

	hits   uint64
	misses uint64
}

// bcache is the buffer cache plus the write-ahead log (xv6's bio.c+log.c).
//
// Locking (fine mode): each shard guards its own slots and index; loglk
// guards the log set, the reservation count, and the commit protocol;
// logCond waits for log capacity or for in-flight reservations to drain.
// loglk is a leaf lock — nothing is acquired while it is held — and
// shard locks nest only inside the allocator lock, so the global order
// is: inode stripes → alloclk → shard locks / loglk.
type bcache struct {
	dev *blockdev.Client
	// width is how many commit/recover device requests share one
	// crossing: svc.PageBatch with Config.BatchIO, else 1.
	width  int
	shards []*bshard

	// Log state: blocks dirtied by running transactions, in order.
	logStart    int
	loglk       *mk.KMutex // nil under the big lock
	logCond     *mk.KCond
	inTx        bool // big-lock mode: the single running transaction
	outstanding int  // fine mode: active reservations
	logged      []*buf

	// Stats.
	Commits   uint64
	LogWrites uint64
}

// newBcache builds the cache over a device connection. cfg selects the
// shape: one unlocked shard under the big lock (identical to the original
// single cache), or nshards locked shards plus the group-commit log in
// fine mode. nslots is the total capacity (nbuf for a real mount; tests
// shrink it to force exhaustion).
func newBcache(dev *blockdev.Client, region hw.VA, logStart, nslots int, cfg Config, k *mk.Kernel) *bcache {
	c := &bcache{dev: dev, logStart: logStart, width: 1}
	if cfg.BatchIO {
		c.width = svc.PageBatch
	}
	shardCount := 1
	if cfg.Lock == LockFine {
		shardCount = nshards
		if nslots < shardCount {
			shardCount = nslots
		}
	}
	per := nslots / shardCount
	for s := 0; s < shardCount; s++ {
		sh := &bshard{
			slots: make([]buf, per),
			index: make(map[int]*buf, per),
		}
		for i := range sh.slots {
			sh.slots[i].slotVA = region + hw.VA((s*per+i)*BlockSize)
		}
		if cfg.Lock == LockFine {
			sh.lk = k.NewKMutex("fs.bcache")
		}
		c.shards = append(c.shards, sh)
	}
	if cfg.Lock == LockFine {
		c.loglk = k.NewKMutex("fs.log")
		c.logCond = k.NewKCond("fs.logspace")
	}
	return c
}

// get returns the cached block bn with one reference held, reading it
// from the device on a miss. The caller must put() the buffer when done.
// In fine mode the shard lock is held across the device read, so two
// threads missing on the same block never race to duplicate it.
func (c *bcache) get(env *mk.Env, bn int) (*buf, error) {
	sh := c.shards[bn%len(c.shards)]
	if sh.lk != nil {
		sh.lk.Lock(env)
		defer sh.lk.Unlock(env)
	}
	sh.clock++
	if b, ok := sh.index[bn]; ok {
		sh.hits++
		b.lru = sh.clock
		env.Compute(12) // tag lookup
		b.ref++
		return b, nil
	}
	sh.misses++
	// Choose a victim: invalid first, then clean unreferenced LRU.
	var victim *buf
	for i := range sh.slots {
		b := &sh.slots[i]
		if !b.valid {
			victim = b
			break
		}
		if b.dirty || b.pinned || b.ref > 0 {
			continue
		}
		if victim == nil || b.lru < victim.lru {
			victim = b
		}
	}
	if victim == nil {
		return nil, ErrCacheExhausted
	}
	if victim.valid {
		delete(sh.index, victim.bn)
		victim.valid = false
	}
	data, err := c.dev.ReadBlock(env, bn)
	if err != nil {
		return nil, err
	}
	*victim = buf{bn: bn, data: data, slotVA: victim.slotVA, ref: 1, lru: sh.clock, valid: true}
	sh.index[bn] = victim
	// Filling the slot touches the whole block in the FS address space.
	env.Write(victim.slotVA, nil, BlockSize)
	return victim, nil
}

// put drops a reference taken by get. Host-only bookkeeping: releasing a
// reference models nothing xv6fs charges cycles for.
func (c *bcache) put(b *buf) {
	if b.ref <= 0 {
		panic("fs: put of unreferenced buffer")
	}
	b.ref--
}

// read returns n bytes at off within the block, charging the access.
func (b *buf) read(env *mk.Env, off, n int) []byte {
	env.Read(b.slotVA+hw.VA(off), nil, n)
	return b.data[off : off+n]
}

// write stores data at off within the block, charging the access. The
// caller must be inside a transaction (hold a reservation in fine mode);
// the block joins the log set. The referenced buffer cannot be evicted,
// so rechecking dirty under loglk closes the only window in which two
// writers could double-log one block.
func (c *bcache) write(env *mk.Env, b *buf, off int, data []byte) {
	if c.loglk == nil && !c.inTx {
		panic("fs: block write outside transaction")
	}
	env.Write(b.slotVA+hw.VA(off), nil, len(data))
	copy(b.data[off:], data)
	if b.dirty {
		return
	}
	if c.loglk != nil {
		c.loglk.Lock(env)
		defer c.loglk.Unlock(env)
		if b.dirty {
			return // logged by another writer while this one waited
		}
	}
	if len(c.logged) >= LogBlocks {
		panic("fs: transaction exceeds log capacity")
	}
	b.dirty = true
	b.pinned = true
	c.logged = append(c.logged, b) // absorption: each block once
	c.LogWrites++
}

// beginTx starts a transaction (xv6 begin_op; the big lock already
// serializes us, so there is exactly one transaction at a time).
func (c *bcache) beginTx() {
	if c.inTx {
		panic("fs: nested transaction")
	}
	c.inTx = true
}

// commitTx ends the big-lock transaction and runs the commit protocol.
func (c *bcache) commitTx(env *mk.Env) error {
	if !c.inTx {
		panic("fs: commit outside transaction")
	}
	c.inTx = false
	return c.deviceCommit(env)
}

// reserve admits one transaction against the group-commit log (fine
// mode): it waits until the running reservations plus this one fit the
// log's capacity at MaxOpBlocks apiece. Readers never reserve, so a
// commit in flight does not block them.
func (c *bcache) reserve(env *mk.Env) {
	c.loglk.Lock(env)
	for len(c.logged)+(c.outstanding+1)*MaxOpBlocks > LogBlocks {
		c.logCond.Wait(env, c.loglk)
	}
	c.outstanding++
	c.loglk.Unlock(env)
}

// release ends a reservation. The last releaser of a group becomes the
// commit leader: it writes every block the group logged in one protocol
// run, so N overlapping transactions cost one commit instead of N.
func (c *bcache) release(env *mk.Env) error {
	c.loglk.Lock(env)
	c.outstanding--
	var err error
	if c.outstanding == 0 && len(c.logged) > 0 {
		err = c.deviceCommit(env)
	}
	c.logCond.Broadcast(env)
	c.loglk.Unlock(env)
	return err
}

// drain waits out in-flight reservations and commits whatever is logged
// (fine mode; Fsync's durability barrier).
func (c *bcache) drain(env *mk.Env) error {
	c.loglk.Lock(env)
	for c.outstanding > 0 {
		c.logCond.Wait(env, c.loglk)
	}
	err := c.deviceCommit(env)
	c.logCond.Broadcast(env)
	c.loglk.Unlock(env)
	return err
}

// deviceCommit implements the xv6 commit protocol: copy dirty blocks to
// the log area, write the log header (the commit point), flush, install
// the blocks in their home locations, clear the header, flush. At a width
// above one the same device-write sequence folds into batched crossings —
// entries dispatch in submission order within a crossing, so the
// header-last and clear-last ordering the protocol depends on survives.
func (c *bcache) deviceCommit(env *mk.Env) error {
	if len(c.logged) == 0 {
		return nil
	}
	c.Commits++
	// 1+2. Log data blocks, then the header that commits them.
	hdr := make([]byte, BlockSize)
	binary.LittleEndian.PutUint64(hdr, uint64(len(c.logged)))
	for i, b := range c.logged {
		binary.LittleEndian.PutUint64(hdr[8+8*i:], uint64(b.bn))
	}
	bns := make([]int, 0, len(c.logged)+1)
	datas := make([][]byte, 0, len(c.logged)+1)
	for i, b := range c.logged {
		bns = append(bns, c.logStart+1+i)
		datas = append(datas, b.data)
	}
	bns = append(bns, c.logStart)
	datas = append(datas, hdr)
	if err := c.dev.WriteBlocks(env, c.width, bns, datas); err != nil {
		return err
	}
	if err := c.dev.Flush(env); err != nil {
		return err
	}
	// 3+4. Install to home locations, then clear the header.
	bns = bns[:0]
	datas = datas[:0]
	for _, b := range c.logged {
		bns = append(bns, b.bn)
		datas = append(datas, b.data)
	}
	bns = append(bns, c.logStart)
	datas = append(datas, make([]byte, BlockSize))
	if err := c.dev.WriteBlocks(env, c.width, bns, datas); err != nil {
		return err
	}
	for _, b := range c.logged {
		b.dirty = false
		b.pinned = false
	}
	if err := c.dev.Flush(env); err != nil {
		return err
	}
	c.logged = c.logged[:0]
	return nil
}

// recover replays a committed-but-uninstalled log after a crash. A
// header that counts more blocks than the log holds is an error.
func (c *bcache) recover(env *mk.Env) error {
	hdr, err := c.dev.ReadBlock(env, c.logStart)
	if err != nil {
		return err
	}
	n := binary.LittleEndian.Uint64(hdr)
	if n > LogBlocks {
		return fmt.Errorf("fs: log header counts %d blocks, the log holds %d", n, LogBlocks)
	}
	if n > 0 {
		logged := make([]int, n)
		homes := make([]int, n)
		for i := range logged {
			logged[i] = c.logStart + 1 + i
			homes[i] = int(binary.LittleEndian.Uint64(hdr[8+8*i:]))
		}
		datas, err := c.dev.ReadBlocks(env, c.width, logged)
		if err != nil {
			return err
		}
		if err := c.dev.WriteBlocks(env, c.width, homes, datas); err != nil {
			return err
		}
	}
	clear(hdr[:8])
	return c.dev.WriteBlock(env, c.logStart, hdr)
}

// stats sums the per-shard hit/miss counters.
func (c *bcache) stats() (hits, misses uint64) {
	for _, sh := range c.shards {
		hits += sh.hits
		misses += sh.misses
	}
	return hits, misses
}
